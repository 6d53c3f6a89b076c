package pipeline

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/metrics"
)

// Default tuning parameters. The batch size amortizes channel send/receive
// overhead across many events (one synchronization per ~256 events keeps
// dispatch cost well under the tracker's per-event work); the queue depth
// bounds how far a worker may fall behind before the dispatcher blocks.
const (
	DefaultBatchSize  = 256
	DefaultQueueDepth = 8
)

// Options configures a Pipeline.
type Options struct {
	// Workers is the number of analysis goroutines; events are sharded
	// onto them by PID. Defaults to GOMAXPROCS.
	Workers int
	// BatchSize is how many events the dispatcher accumulates per shard
	// before handing the batch to the worker. Defaults to
	// DefaultBatchSize.
	BatchSize int
	// QueueDepth is the per-worker channel capacity, in batches. Once a
	// worker's queue is full the dispatcher blocks — explicit
	// backpressure, never drops. Defaults to DefaultQueueDepth.
	QueueDepth int
	// Config holds the tainting-window parameters every worker's tracker
	// runs with. Invalid configs panic in New, matching core.NewTracker.
	Config core.Config
	// Observer, when non-nil, is invoked on the worker goroutine for
	// every event just before the tracker consumes it. It exists for
	// tests and metrics; it must not call back into the pipeline.
	Observer func(worker int, ev cpu.Event)
	// Metrics, when non-nil, instruments the pipeline and every worker
	// tracker against this registry (see NewPipelineMetrics and
	// core.NewTrackerMetrics for the metric names). Nil runs
	// uninstrumented at zero cost beyond predicted branches.
	Metrics *metrics.Registry
	// CheckpointEvery asks DrainTrace to quiesce the pipeline and invoke
	// OnCheckpoint every that many events (counted from stream start, so
	// a resumed run keeps the original cadence). 0 disables periodic
	// checkpoints. A producer feeding Event/EventBatch owns its own
	// cadence: it calls WriteCheckpoint where it wants one.
	CheckpointEvery uint64
	// OnCheckpoint receives the quiesced pipeline at each checkpoint
	// boundary; it typically calls WriteCheckpoint into durable storage.
	// An error aborts the run — a checkpoint that cannot be written must
	// not be silently skipped.
	OnCheckpoint func(p *Pipeline) error
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize < 1 {
		o.BatchSize = DefaultBatchSize
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = DefaultQueueDepth
	}
	return o
}
