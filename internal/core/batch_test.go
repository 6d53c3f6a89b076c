package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace/tracegen"
)

// applyPair runs one event stream through two instrumented trackers: ref
// takes it event by event, batch through EventBatch.
type applyPair struct {
	ref, batch       *Tracker
	refReg, batchReg *metrics.Registry
}

func newApplyPair(cfg Config) *applyPair {
	p := &applyPair{
		ref: NewTracker(cfg, nil), batch: NewTracker(cfg, nil),
		refReg: metrics.NewRegistry(), batchReg: metrics.NewRegistry(),
	}
	p.ref.SetMetrics(NewTrackerMetrics(p.refReg))
	p.batch.SetMetrics(NewTrackerMetrics(p.batchReg))
	return p
}

// apply feeds evs to both trackers, the batch tracker in batches that end
// after each index in cuts (ascending) and at the end of evs.
func (p *applyPair) apply(evs []cpu.Event, cuts []int) {
	for _, ev := range evs {
		p.ref.Event(ev)
	}
	start := 0
	for _, c := range append(cuts, len(evs)) {
		p.batch.EventBatch(evs[start:c])
		start = c
	}
}

// randomCuts cuts n events into batches of 1–600.
func randomCuts(rng *rand.Rand, n int) []int {
	var cuts []int
	for c := 1 + rng.Intn(600); c < n; c += 1 + rng.Intn(600) {
		cuts = append(cuts, c)
	}
	return cuts
}

// diff reports the first observable difference between the two trackers:
// Stats, verdicts in stored order, window count, snapshot bytes, or the
// metrics exposition.
func (p *applyPair) diff() error {
	if a, b := p.ref.Stats(), p.batch.Stats(); a != b {
		return fmt.Errorf("stats: per-event %+v, batch %+v", a, b)
	}
	if a, b := p.ref.Verdicts(), p.batch.Verdicts(); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("verdicts differ: per-event %d, batch %d", len(a), len(b))
	}
	if a, b := p.ref.WindowCount(), p.batch.WindowCount(); a != b {
		return fmt.Errorf("window count: per-event %d, batch %d", a, b)
	}
	var sa, sb, ma, mb bytes.Buffer
	if _, err := p.ref.WriteSnapshot(&sa); err != nil {
		return err
	}
	if _, err := p.batch.WriteSnapshot(&sb); err != nil {
		return err
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		return fmt.Errorf("snapshots differ (%d vs %d bytes)", sa.Len(), sb.Len())
	}
	if err := p.refReg.WritePrometheus(&ma); err != nil {
		return err
	}
	if err := p.batchReg.WritePrometheus(&mb); err != nil {
		return err
	}
	if ma.String() != mb.String() {
		return fmt.Errorf("metrics differ:\nper-event:\n%s\nbatch:\n%s", ma.String(), mb.String())
	}
	return nil
}

var batchConfigs = []Config{
	{NI: 13, NT: 3, Untaint: true},
	{NI: 5, NT: 1, Untaint: false},
}

// TestEventBatchMatchesEvent replays tracegen corpora from clean (no
// source registrations) to dense, at several process counts and
// context-switch quanta, through EventBatch in random cuts, and requires
// every observable of the per-event tracker.
func TestEventBatchMatchesEvent(t *testing.T) {
	events := 1 << 16
	if testing.Short() {
		events = 1 << 12
	}
	for _, every := range []int{1 << 30, 0, 256} {
		for _, pids := range []int{1, 8, 64} {
			for _, quantum := range []int{3, 64} {
				evs := tracegen.Generate(tracegen.Spec{
					Seed: int64(every + pids*7 + quantum), Events: events,
					PIDs: pids, Quantum: quantum, SourceEvery: every,
				}).Events
				for ci, cfg := range batchConfigs {
					name := fmt.Sprintf("every=%d/pids=%d/quantum=%d/cfg=%d", every, pids, quantum, ci)
					t.Run(name, func(t *testing.T) {
						p := newApplyPair(cfg)
						p.apply(evs, randomCuts(rand.New(rand.NewSource(int64(len(name)))), len(evs)))
						if err := p.diff(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// emptiedOpenWindow is a trace the tracegen corpora never reach: PID 1's
// window spends its NT budget, its next stores untaint every tainted
// range inside the NI horizon, so its taint set is empty while the
// window is still open. The store at Seq 30 is past the horizon (ltlt 2
// + NI 13) and must close that window, counting one expiration. The
// PID 2 event between them makes that store start a PID run.
func emptiedOpenWindow() []cpu.Event {
	return []cpu.Event{
		{Kind: cpu.EvSourceRegister, PID: 1, Seq: 1, Range: mem.MakeRange(10, 4)},
		load(1, 2, 10, 4),   // tainted load: window opens
		store(1, 3, 20, 4),  // taint
		store(1, 4, 30, 4),  // taint
		store(1, 5, 40, 4),  // taint: NT 3 spent
		store(1, 6, 10, 4),  // budget spent: untaint the source
		store(1, 7, 20, 4),  // untaint
		store(1, 8, 30, 4),  // untaint
		store(1, 9, 40, 4),  // untaint: set empty, window open
		load(2, 1, 90, 4),   // another process
		store(1, 30, 50, 4), // past the horizon: closes the window
		{Kind: cpu.EvSinkCheck, PID: 1, Seq: 31, Tag: 1, Range: mem.MakeRange(10, 16)},
	}
}

// TestEventBatchClosesEmptiedWindow: a process with no taint but an open
// window is not quiet, at every cut of the trace.
func TestEventBatchClosesEmptiedWindow(t *testing.T) {
	evs := emptiedOpenWindow()
	cfg := Config{NI: 13, NT: 3, Untaint: true}
	for cut := 0; cut <= len(evs); cut++ {
		p := newApplyPair(cfg)
		p.apply(evs, []int{cut})
		if err := p.diff(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if w := p.batch.windows[1]; w == nil || w.open {
			t.Fatalf("cut %d: window %+v, want closed", cut, w)
		}
		exp := p.batchReg.Counter("pift_tracker_window_expirations_total", "")
		if exp.Value() != 1 {
			t.Fatalf("cut %d: %d window expirations, want 1", cut, exp.Value())
		}
	}
}

// TestEventBatchBoundedStore: a tracker on a store other than the
// IdealStore applies every event through Event, so the store sees every
// lookup in stream order.
func TestEventBatchBoundedStore(t *testing.T) {
	evs := tracegen.Generate(tracegen.Spec{Seed: 5, Events: 1 << 12, PIDs: 8, SourceEvery: 256}).Events
	ref := NewTracker(Config{NI: 13, NT: 3, Untaint: true}, NewRangeCache(8, EvictLRU))
	batch := NewTracker(Config{NI: 13, NT: 3, Untaint: true}, NewRangeCache(8, EvictLRU))
	for _, ev := range evs {
		ref.Event(ev)
	}
	batch.EventBatch(evs)
	a, b := ref.Store().(*RangeCache), batch.Store().(*RangeCache)
	if a.Stats() != b.Stats() {
		t.Fatalf("cache stats: per-event %+v, batch %+v", a.Stats(), b.Stats())
	}
	if ref.Stats() != batch.Stats() || !reflect.DeepEqual(ref.Verdicts(), batch.Verdicts()) {
		t.Fatal("bounded-store trackers diverge")
	}
}

// TestCountQuietMatchesEvent replays tracegen corpora the way a
// projected trace read hands them over: each PID run of a process that is
// quiet at the run's start and registers no source in it arrives as one
// CountQuiet of its loads and stores, followed by its sink checks with
// their ranges left out, in one EventBatch; every other run arrives
// whole. Every observable must equal the per-event tracker's.
func TestCountQuietMatchesEvent(t *testing.T) {
	projected := mem.Range{Start: 1, End: 0} // trace.ProjectedRange
	for _, every := range []int{1 << 30, 0, 256} {
		for _, quantum := range []int{3, 64} {
			evs := tracegen.Generate(tracegen.Spec{
				Seed: int64(every + quantum), Events: 1 << 13, PIDs: 8, Quantum: quantum, SourceEvery: every,
			}).Events
			name := fmt.Sprintf("every=%d/quantum=%d", every, quantum)
			p := newApplyPair(batchConfigs[0])
			counted := 0
			for i := 0; i < len(evs); {
				j := i + 1
				for j < len(evs) && evs[j].PID == evs[i].PID {
					j++
				}
				run := evs[i:j]
				for _, ev := range run {
					p.ref.Event(ev)
				}
				source := func(ev cpu.Event) bool { return ev.Kind == cpu.EvSourceRegister }
				if !p.batch.Quiet(run[0].PID) || slices.ContainsFunc(run, source) {
					p.batch.EventBatch(run)
					i = j
					continue
				}
				var loads, stores uint64
				var sinks []cpu.Event
				for _, ev := range run {
					switch ev.Kind {
					case cpu.EvLoad:
						loads++
					case cpu.EvStore:
						stores++
					default:
						ev.Range = projected
						sinks = append(sinks, ev)
					}
				}
				p.batch.CountQuiet(run[0].PID, loads, stores)
				p.batch.EventBatch(sinks)
				counted += len(run)
				i = j
			}
			if counted == 0 {
				t.Fatalf("%s: no run was counted", name)
			}
			if err := p.diff(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestCountQuietRefuses: CountQuiet panics and changes nothing for a
// process that holds taint, for one whose taint set is empty but whose
// window is still open, and on a store other than the IdealStore.
func TestCountQuietRefuses(t *testing.T) {
	cfg := Config{NI: 13, NT: 3, Untaint: true}
	tainted := NewTracker(cfg, nil)
	tainted.Event(cpu.Event{Kind: cpu.EvSourceRegister, PID: 1, Seq: 1, Range: mem.MakeRange(10, 4)})
	open := NewTracker(cfg, nil)
	evs := emptiedOpenWindow()
	open.EventBatch(evs[:9]) // PID 1: set empty, window open
	bounded := NewTracker(cfg, NewRangeCache(8, EvictLRU))
	for name, tr := range map[string]*Tracker{"tainted": tainted, "open-window": open, "bounded-store": bounded} {
		if tr.Quiet(1) {
			t.Fatalf("%s: PID 1 is quiet", name)
		}
		state := func() string {
			return fmt.Sprintf("%+v windows=%d ranges=%d", tr.Stats(), tr.WindowCount(), tr.RangeCount())
		}
		before := state()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: CountQuiet did not panic", name)
				}
			}()
			tr.CountQuiet(1, 5, 7)
		}()
		if after := state(); after != before {
			t.Fatalf("%s: a refused count changed the tracker: %s, was %s", name, after, before)
		}
	}
}

// BenchmarkTrackerApply compares per-event Event with EventBatch in
// 256-event batches (the pipeline's default batch size) over a clean
// corpus (no source registrations: every process stays quiet), the
// generator's default density, and a dense one.
func BenchmarkTrackerApply(b *testing.B) {
	const batch = 256
	for _, c := range []struct {
		name  string
		every int
	}{{"clean", 1 << 30}, {"default", 0}, {"dense", 256}} {
		evs := tracegen.Generate(tracegen.Spec{Seed: 1, Events: 1 << 16, SourceEvery: c.every}).Events
		for _, mode := range []string{"event", "batch"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				tr := NewTracker(Config{NI: 13, NT: 3, Untaint: true}, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.Reset()
					if mode == "event" {
						for _, ev := range evs {
							tr.Event(ev)
						}
						continue
					}
					for off := 0; off < len(evs); off += batch {
						tr.EventBatch(evs[off:min(off+batch, len(evs))])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
			})
		}
	}
}
