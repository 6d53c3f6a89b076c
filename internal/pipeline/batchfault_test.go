package pipeline_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// poisonBase marks the chosen events: syntheticStream's ranges all start
// far below it.
const poisonBase = 1 << 30

// poisonStore is an IdealStore that panics on any operation on a range
// starting at or above poisonBase. With untainting on, every event kind
// reaches the store, so every chosen event panics inside the tracker.
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

// TestBatchPathRestartContract: a panic raised inside Tracker.EventBatch
// (no observer) must skip exactly the event that raised it and resume the
// batch after it, as the observer's per-event loop does. Every result
// field the restart policy shapes must match a run of the same panicking
// store with a no-op observer, which forces the per-event loop.
func TestBatchPathRestartContract(t *testing.T) {
	evs := syntheticStream(20_000, 4, 23)
	for i := 700; i < len(evs); i += 4_000 {
		evs[i].Range = mem.MakeRange(poisonBase+mem.Addr(i), 4)
	}
	for _, workers := range []int{1, 2} {
		for _, maxRestarts := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("workers=%d/restarts=%d", workers, maxRestarts), func(t *testing.T) {
				run := func(obs func(int, cpu.Event)) pipeline.Result {
					return runEvents(evs, pipeline.Options{
						Workers:     workers,
						BatchSize:   64,
						Config:      testCfg,
						MaxRestarts: maxRestarts,
						NewStore:    func() core.Store { return poisonStore{core.NewIdealStore()} },
						Observer:    obs,
					})
				}
				batch := run(nil)
				perEvent := run(func(int, cpu.Event) {})
				if len(batch.Faults) == 0 {
					t.Fatal("no shard faulted: the poisoned events never reached the store")
				}
				if got, want := faultReport(batch), faultReport(perEvent); got != want {
					t.Fatalf("faults:\nbatch     %s\nper-event %s", got, want)
				}
				if batch.Degraded != perEvent.Degraded {
					t.Fatalf("degraded: batch %v, per-event %v", batch.Degraded, perEvent.Degraded)
				}
				if batch.Stats != perEvent.Stats {
					t.Fatalf("stats:\nbatch     %+v\nper-event %+v", batch.Stats, perEvent.Stats)
				}
				if !reflect.DeepEqual(batch.Verdicts, perEvent.Verdicts) {
					t.Fatal("verdicts differ")
				}
			})
		}
	}
}

// faultReport renders Result.Faults with each error as its message.
func faultReport(res pipeline.Result) string {
	s := ""
	for _, f := range res.Faults {
		s += fmt.Sprintf("{worker %d restarts %d failed %v dropped %d/%d err %v} ",
			f.Worker, f.Restarts, f.Failed, f.DroppedEvents, f.DroppedBatches, f.Err)
	}
	return s
}
