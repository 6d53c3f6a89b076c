package chaos

import (
	"fmt"
	"time"

	"repro/internal/cpu"
)

// WorkerFaults schedules the shard-level faults delivered through a
// pipeline observer. Event counts are per-shard: the observer sees each
// shard's events in their deterministic per-shard order regardless of
// batching, so a schedule keyed on "the Nth event this shard analyzes"
// reproduces exactly across runs.
type WorkerFaults struct {
	// PanicWorker is the shard to kill (-1 disables). The event after
	// the first PanicAfter observed on that shard panics, which fails
	// the shard and the run.
	PanicWorker int
	PanicAfter  uint64
	// SlowWorker sleeps SlowSleep once per SlowEvery events on that
	// shard (-1 / 0 disable) — the slow-shard fault that turns into
	// dispatcher backpressure.
	SlowWorker int
	SlowEvery  uint64
	SlowSleep  time.Duration
}

// NoWorkerFaults is the identity schedule: all faults disabled.
func NoWorkerFaults() WorkerFaults {
	return WorkerFaults{PanicWorker: -1, SlowWorker: -1}
}

// Observer builds a pipeline observer enacting the schedule. Each
// counter is touched only by its target shard's goroutine, so the
// observer is race-free under concurrent workers; injected panics name
// the seed so any CI failure states its own reproduction recipe.
func (in *Injector) Observer(f WorkerFaults) func(worker int, ev cpu.Event) {
	var panicSeen uint64
	var slowSeen uint64
	seed := in.seed
	return func(worker int, ev cpu.Event) {
		if worker == f.SlowWorker && f.SlowEvery > 0 {
			slowSeen++
			if slowSeen%f.SlowEvery == 0 {
				time.Sleep(f.SlowSleep)
			}
		}
		if worker == f.PanicWorker {
			panicSeen++
			if panicSeen == f.PanicAfter+1 {
				panic(fmt.Sprintf("chaos: injected panic on worker %d (seed %d)", worker, seed))
			}
		}
	}
}
