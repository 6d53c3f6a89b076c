package pipeline_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

var testCfg = core.Config{NI: 13, NT: 3, Untaint: true}

// syntheticStream builds a multi-process stream with per-PID monotonic
// sequence numbers, periodic source registrations, and sink checks —
// every event kind the tracker handles.
func syntheticStream(n, pids int, seed int64) []cpu.Event {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]uint64, pids+1)
	tag := 0
	evs := make([]cpu.Event, 0, n)
	for i := 0; i < n; i++ {
		pid := uint32(rng.Intn(pids) + 1)
		seq[pid] += uint64(rng.Intn(3) + 1)
		r := mem.MakeRange(mem.Addr(uint32(pid)<<16|uint32(rng.Intn(1<<12))), uint32(rng.Intn(16)+1))
		ev := cpu.Event{PID: pid, Seq: seq[pid], Range: r}
		switch k := rng.Intn(100); {
		case k < 2:
			ev.Kind = cpu.EvSourceRegister
		case k < 5:
			ev.Kind = cpu.EvSinkCheck
			tag++
			ev.Tag = tag
		case k < 55:
			ev.Kind = cpu.EvLoad
		default:
			ev.Kind = cpu.EvStore
		}
		evs = append(evs, ev)
	}
	return evs
}

// sequentialOracle runs the events through one core.Tracker and returns
// its stats and canonically sorted verdicts.
func sequentialOracle(evs []cpu.Event, cfg core.Config) (core.Stats, []core.SinkVerdict) {
	tr := core.NewTracker(cfg, nil)
	for _, ev := range evs {
		tr.Event(ev)
	}
	vs := append([]core.SinkVerdict(nil), tr.Verdicts()...)
	core.SortVerdicts(vs)
	return tr.Stats(), vs
}

func TestPipelineMatchesSequential(t *testing.T) {
	evs := syntheticStream(50_000, 7, 42)
	wantStats, wantVerdicts := sequentialOracle(evs, testCfg)
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := pipeline.New(pipeline.Options{Workers: workers, Config: testCfg})
			for _, ev := range evs {
				p.Event(ev)
			}
			res := p.Close()
			if res.Events != uint64(len(evs)) {
				t.Fatalf("dispatched %d events, want %d", res.Events, len(evs))
			}
			got := fmt.Sprintf("%#v", res.Verdicts)
			want := fmt.Sprintf("%#v", wantVerdicts)
			if got != want {
				t.Errorf("verdicts differ:\n got %s\nwant %s", got, want)
			}
			// Counters must be exact; watermarks are per-shard maxima and
			// may only fall below the sequential cross-process total.
			cmp := res.Stats
			cmp.MaxBytes, cmp.MaxRanges = wantStats.MaxBytes, wantStats.MaxRanges
			if cmp != wantStats {
				t.Errorf("counters differ: %+v, want %+v", res.Stats, wantStats)
			}
			if res.Stats.MaxBytes > wantStats.MaxBytes || res.Stats.MaxRanges > wantStats.MaxRanges {
				t.Errorf("watermarks %d/%d exceed sequential %d/%d",
					res.Stats.MaxBytes, res.Stats.MaxRanges,
					wantStats.MaxBytes, wantStats.MaxRanges)
			}
			// With a single worker the whole stream hits one tracker, so
			// even the watermarks must be byte-identical.
			if workers == 1 && res.Stats != wantStats {
				t.Errorf("1-worker stats %+v, want %+v", res.Stats, wantStats)
			}
		})
	}
}

// TestPipelineBatchSizes checks the batch boundary cases: size 1 (every
// event its own batch), a size that does not divide the stream length,
// and a size larger than the whole stream (flush happens only at Close).
func TestPipelineBatchSizes(t *testing.T) {
	evs := syntheticStream(1000, 3, 7)
	wantStats, wantVerdicts := sequentialOracle(evs, testCfg)
	for _, batch := range []int{1, 7, 256, 4096} {
		p := pipeline.New(pipeline.Options{Workers: 2, BatchSize: batch, Config: testCfg})
		for _, ev := range evs {
			p.Event(ev)
		}
		res := p.Close()
		if got, want := fmt.Sprintf("%#v", res.Verdicts), fmt.Sprintf("%#v", wantVerdicts); got != want {
			t.Errorf("batch=%d: verdicts differ", batch)
		}
		cmp := res.Stats
		cmp.MaxBytes, cmp.MaxRanges = wantStats.MaxBytes, wantStats.MaxRanges
		if cmp != wantStats {
			t.Errorf("batch=%d: counters %+v, want %+v", batch, res.Stats, wantStats)
		}
	}
}

// TestPipelinePerPIDOrdering asserts the core correctness invariant: each
// worker observes its PIDs' events in exactly the original stream order.
func TestPipelinePerPIDOrdering(t *testing.T) {
	evs := syntheticStream(20_000, 5, 99)
	perWorker := make([][]cpu.Event, 4)
	var mu sync.Mutex // workers never share an index, but -race can't know that
	p := pipeline.New(pipeline.Options{
		Workers:   4,
		BatchSize: 16,
		Config:    testCfg,
		Observer: func(w int, ev cpu.Event) {
			mu.Lock()
			perWorker[w] = append(perWorker[w], ev)
			mu.Unlock()
		},
	})
	for _, ev := range evs {
		p.Event(ev)
	}
	p.Close()

	// Reassemble each PID's subsequence as the workers saw it and compare
	// with the input's per-PID subsequence.
	gotByPID := map[uint32][]cpu.Event{}
	for _, seq := range perWorker {
		for _, ev := range seq {
			gotByPID[ev.PID] = append(gotByPID[ev.PID], ev)
		}
	}
	wantByPID := map[uint32][]cpu.Event{}
	for _, ev := range evs {
		wantByPID[ev.PID] = append(wantByPID[ev.PID], ev)
	}
	for pid, want := range wantByPID {
		got := gotByPID[pid]
		if len(got) != len(want) {
			t.Fatalf("pid %d: saw %d events, want %d", pid, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pid %d: event %d reordered: %+v vs %+v", pid, i, got[i], want[i])
			}
		}
	}
}

func TestPipelineEventAfterClosePanics(t *testing.T) {
	p := pipeline.New(pipeline.Options{Workers: 1, Config: testCfg})
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Event after Close did not panic")
		}
	}()
	p.Event(cpu.Event{Kind: cpu.EvLoad, PID: 1, Seq: 1, Range: mem.MakeRange(0, 4)})
}

func TestPipelineDefaultsAndAccessors(t *testing.T) {
	p := pipeline.New(pipeline.Options{Config: testCfg})
	if p.Workers() < 1 {
		t.Fatalf("defaulted worker count %d", p.Workers())
	}
	res := p.Close()
	if res.Workers != p.Workers() || res.Events != 0 || len(res.Verdicts) != 0 {
		t.Fatalf("empty-run result %+v", res)
	}
}
