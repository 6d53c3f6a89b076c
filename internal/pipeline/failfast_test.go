package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// poisonBase marks the one poisoned event of the fail-fast stream:
// tracegen's ranges all start far below it.
const poisonBase = 1 << 30

// poisonStore is an IdealStore that panics on any operation on a range
// starting at or above poisonBase: a faulty store whose panic rises out
// of Tracker.EventBatch. With untainting on, every event kind reaches the
// store.
type poisonStore struct{ *core.IdealStore }

func (poisonStore) check(r mem.Range) {
	if r.Start >= poisonBase {
		panic(fmt.Sprintf("poisoned range %#x", r.Start))
	}
}

func (s poisonStore) Add(pid uint32, r mem.Range) {
	s.check(r)
	s.IdealStore.Add(pid, r)
}

func (s poisonStore) Remove(pid uint32, r mem.Range) bool {
	s.check(r)
	return s.IdealStore.Remove(pid, r)
}

func (s poisonStore) Overlaps(pid uint32, r mem.Range) bool {
	s.check(r)
	return s.IdealStore.Overlaps(pid, r)
}

// TestShardPanicFailsRun: the first panic in a shard fails the run on
// every route — the dispatcher (EventBatch, then Close) and DrainTrace
// over PIFTTRC1 and PIFTTRC3 — at 1, 2 and 4 workers. A panic can come
// from an Observer (the per-event loop), from a faulty store inside
// Tracker.EventBatch (given to the workers through NewSeeded), or from a
// count the tracker refuses (Count on a process that holds taint). In
// every cell the Result carries an Err that names the panic and no Stats
// or Verdicts, and pift_pipeline_worker_panics_total reads 1. The
// dispatcher takes the whole stream (nothing hung on the failed shard)
// and refuses both checkpoints after the fault. DrainTrace ends with the
// phase the fault fell in: the failed worker reads no further, Events is
// that phase's end, and no checkpoint follows it; the injected count
// fails its shard at the checkpoint it runs in, which that checkpoint
// refuses, and so ends the next phase.
func TestShardPanicFailsRun(t *testing.T) {
	const (
		every    = 4096  // checkpoint cadence
		poisoned = 12000 // stream index of the poisoned event
		injectAt = 12288 // checkpoint at which the refused count is injected
		tainted  = 1000  // PID the count source registers a source for
	)
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	rec := tracegen.Generate(tracegen.Spec{Seed: 26, Events: 20_000, PIDs: 8})
	rec.Events[poisoned].Range = mem.MakeRange(poisonBase, 4)
	wires := map[trace.Format][]byte{}
	for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		var buf bytes.Buffer
		if _, err := rec.WriteToFormat(&buf, f); err != nil {
			t.Fatal(err)
		}
		wires[f] = buf.Bytes()
	}

	// A source builds the cell's pipeline; inject, when set, runs at the
	// quiesced checkpoint at offset injectAt.
	type source struct {
		name   string
		msg    string // in the panic's message
		build  func(opts Options) (*Pipeline, error)
		inject func(p *Pipeline)
		// What DrainTrace ends with: the end of the phase the fault
		// fell in, and the checkpoints refused after the fault.
		drainEvents  uint64
		drainRefused int
	}
	sources := []source{
		{
			name: "observer", msg: "injected observer fault", drainEvents: injectAt,
			build: func(opts Options) (*Pipeline, error) {
				opts.Observer = func(_ int, ev cpu.Event) {
					if ev.Range.Start >= poisonBase {
						panic("injected observer fault")
					}
				}
				return New(opts), nil
			},
		},
		{
			name: "store", msg: fmt.Sprintf("poisoned range %#x", poisonBase), drainEvents: injectAt,
			build: func(opts Options) (*Pipeline, error) {
				trs := make([]*core.Tracker, opts.Workers)
				for i := range trs {
					trs[i] = core.NewTracker(cfg, poisonStore{core.NewIdealStore()})
				}
				return NewSeeded(opts, trs, 0)
			},
		},
		{
			name: "count", msg: fmt.Sprintf("PID %d, which is not quiet", tainted),
			drainEvents: injectAt + every, drainRefused: 1,
			build: func(opts Options) (*Pipeline, error) { return New(opts), nil },
			inject: func(p *Pipeline) {
				w := p.workers[ShardOf(tainted, len(p.workers))]
				w.tr.Event(cpu.Event{Kind: cpu.EvSourceRegister, PID: tainted, Seq: 1, Range: mem.MakeRange(16, 4)})
				w.Count(tainted, 3, 4)
			},
		},
	}

	for _, route := range []string{"dispatcher", "drain-v1", "drain-v2"} {
		for _, src := range sources {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", route, src.name, workers), func(t *testing.T) {
					reg := metrics.NewRegistry()
					refused := 0
					checkpoint := func(p *Pipeline) error {
						p.Sync()
						if src.inject != nil && p.Offset() == injectAt {
							src.inject(p)
						}
						_, err := p.WriteCheckpoint(io.Discard)
						if p.Offset() < injectAt {
							return nil // before the fault
						}
						if err == nil || !strings.Contains(err.Error(), "checkpoint refused") || !strings.Contains(err.Error(), src.msg) {
							t.Errorf("checkpoint at %d after the fault: err = %v, want a refusal naming the panic", p.Offset(), err)
						}
						refused++
						return nil
					}
					opts := Options{
						Workers: workers, BatchSize: 64, QueueDepth: 2, Config: cfg, Metrics: reg,
						CheckpointEvery: every, OnCheckpoint: checkpoint,
					}
					p, err := src.build(opts)
					if err != nil {
						t.Fatal(err)
					}
					var res Result
					if route == "dispatcher" {
						evs := rec.Events
						for off := 0; off < len(evs); off += every {
							end := min(off+every, len(evs))
							p.EventBatch(evs[off:end])
							if end%every == 0 {
								checkpoint(p)
							}
						}
						res = p.Close()
					} else {
						wire := wires[trace.FormatV1]
						if route == "drain-v2" {
							wire = wires[trace.FormatV2]
						}
						res, err = p.DrainTrace(context.Background(), bytes.NewReader(wire))
						if err != res.Err {
							t.Fatalf("DrainTrace returned %v, Result.Err %v", err, res.Err)
						}
					}
					if res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") || !strings.Contains(res.Err.Error(), src.msg) {
						t.Fatalf("Result.Err = %v, want the panic %q", res.Err, src.msg)
					}
					if res.Stats != (core.Stats{}) || res.Verdicts != nil {
						t.Fatalf("failed run returned output: %d verdicts, stats %+v", len(res.Verdicts), res.Stats)
					}
					wantEvents, wantRefused := uint64(len(rec.Events)), 2
					if route != "dispatcher" {
						wantEvents, wantRefused = src.drainEvents, src.drainRefused
					}
					if res.Events != wantEvents || res.Workers != workers {
						t.Fatalf("Result has %d events at %d workers, want %d at %d", res.Events, res.Workers, wantEvents, workers)
					}
					if got := reg.Counter("pift_pipeline_worker_panics_total", "").Value(); got != 1 {
						t.Fatalf("pift_pipeline_worker_panics_total = %d, want 1", got)
					}
					if refused != wantRefused {
						t.Fatalf("%d checkpoints after the fault, want %d", refused, wantRefused)
					}
					// The one worker stopped reading at its failure, short
					// of the phase's end.
					if read := reg.Counter("pift_pipeline_events_total", "").Value(); route != "dispatcher" && workers == 1 && read >= res.Events {
						t.Fatalf("the failed worker read %d events of a drain that ended at %d", read, res.Events)
					}
				})
			}
		}
	}
}
