package pipeline

import "repro/internal/metrics"

// PipelineMetrics wires the dispatcher/worker machinery into live
// gauges and histograms. The zero value disables instrumentation; all
// mutations are nil-receiver-safe.
type PipelineMetrics struct {
	// EventsDispatched counts the events workers are given to analyze:
	// those in each batch the dispatcher sends (Event/EventBatch), and
	// under DrainTrace those each worker reads for itself, the loads and
	// stores its projected read hands over as counts included.
	// BatchesDispatched counts delivered batches: each batch the
	// dispatcher sends, and each batch a worker's read returns.
	EventsDispatched  *metrics.Counter
	BatchesDispatched *metrics.Counter
	// QueueDepth is the number of batches currently sitting in worker
	// channels: incremented at dispatch, decremented after a worker
	// finishes a batch. QueueDepthHigh is its high-water mark. Dispatcher
	// only: DrainTrace hands no batches between goroutines.
	QueueDepth     *metrics.Gauge
	QueueDepthHigh *metrics.Gauge
	// Stalls counts dispatcher sends that found the worker queue full —
	// each one is a backpressure block on the producer. Dispatcher only.
	Stalls *metrics.Counter
	// BatchSeconds is the per-batch analysis latency on the worker
	// (receive-to-done), and BatchEvents the size distribution of
	// delivered batches, which holds no counted event.
	BatchSeconds *metrics.Histogram
	BatchEvents  *metrics.Histogram
	// MergeNanos is the duration of the last Close drain+merge.
	MergeNanos *metrics.Gauge
	// WorkerPanics counts panics recovered inside workers. Each one
	// fails its shard, and with it the run.
	WorkerPanics *metrics.Counter
	// Checkpoints counts checkpoints written, and CheckpointBytes the
	// total bytes serialized into them.
	Checkpoints     *metrics.Counter
	CheckpointBytes *metrics.Counter
}

// NewPipelineMetrics registers the pipeline metric set under its
// canonical names; registration is idempotent, so every pipeline built
// over the same registry shares one set.
func NewPipelineMetrics(r *metrics.Registry) PipelineMetrics {
	return PipelineMetrics{
		EventsDispatched: r.Counter("pift_pipeline_events_total",
			"Events given to workers to analyze: sent by the dispatcher, or read by a DrainTrace worker, counted loads and stores included."),
		BatchesDispatched: r.Counter("pift_pipeline_batches_total",
			"Event batches delivered to workers: sent by the dispatcher, or returned by a DrainTrace worker's read."),
		QueueDepth: r.Gauge("pift_pipeline_queue_depth",
			"Batches currently enqueued across all worker channels."),
		QueueDepthHigh: r.Gauge("pift_pipeline_queue_depth_highwater",
			"High-water mark of enqueued batches."),
		Stalls: r.Counter("pift_pipeline_backpressure_stalls_total",
			"Dispatcher sends that blocked on a full worker queue."),
		BatchSeconds: r.Histogram("pift_pipeline_batch_seconds",
			"Per-batch worker analysis latency in seconds.",
			metrics.LatencyBuckets),
		BatchEvents: r.Histogram("pift_pipeline_batch_events",
			"Events per delivered batch; loads and stores a DrainTrace read counts are in no batch.", metrics.CountBuckets),
		MergeNanos: r.Gauge("pift_pipeline_merge_duration_ns",
			"Duration of the last Close drain and merge, in nanoseconds."),
		WorkerPanics: r.Counter("pift_pipeline_worker_panics_total",
			"Panics recovered inside pipeline workers; each fails its shard and the run."),
		Checkpoints: r.Counter("pift_pipeline_checkpoints_total",
			"Pipeline checkpoints written."),
		CheckpointBytes: r.Counter("pift_pipeline_checkpoint_bytes_total",
			"Total bytes serialized into pipeline checkpoints."),
	}
}
