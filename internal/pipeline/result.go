package pipeline

import "repro/internal/core"

// Result is the merged outcome of one pipeline run. Stats counters equal
// the sequential tracker's exactly; the watermarks are the largest any
// shard reached (identical to sequential whenever taint lives in one
// process at a time). Verdicts are in canonical (PID, Seq, Tag) order —
// sort a sequential tracker's verdicts with core.SortVerdicts to compare
// the two byte for byte.
type Result struct {
	Stats    core.Stats
	Verdicts []core.SinkVerdict
	Events   uint64 // events dispatched, all shards, including pre-restore history
	Workers  int
	// Err is the first failed shard's fault (a recovered panic), in
	// worker-index order. A failed run holds no Stats and no Verdicts:
	// a shard that panicked analyzed only part of its stream, so any
	// merge would differ from the sequential tracker's.
	Err error
}
