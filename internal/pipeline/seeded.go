package pipeline

import (
	"fmt"

	"repro/internal/core"
)

// Session-embeddable construction: a pipeline seeded from live trackers.
// The serving layer splits a tenant's sequential tracker by PID
// (core.Tracker.SplitByPID with ShardOf as the shard function), seeds a
// pipeline with the shards at the session's acked offset, feeds the
// remainder of the stream through EventBatch, and merges the shards back
// (core.MergeTrackers) at commit points it owns — checkpointing stays
// external, the pipeline only promises quiescence at the boundaries the
// caller already gets from Sync, OnCheckpoint, and Close. Restore is the
// same construction over trackers decoded from a checkpoint file.

// NewSeeded builds a pipeline whose shard i analyzes with trackers[i],
// resuming the stream position at offset. The tracker slice determines
// the worker count; conflicting opts are an error rather than silently
// ignored. Each seed keeps the store it carries.
// The caller must have partitioned state with the same shard function
// the pipeline routes with (ShardOf at len(trackers) workers), or shards
// will see events for PIDs whose state lives elsewhere.
func NewSeeded(opts Options, trackers []*core.Tracker, offset uint64) (*Pipeline, error) {
	if len(trackers) == 0 {
		return nil, fmt.Errorf("pipeline: seeded with zero trackers")
	}
	if opts.Workers > 0 && opts.Workers != len(trackers) {
		return nil, fmt.Errorf("pipeline: %d seed trackers, options demand %d workers", len(trackers), opts.Workers)
	}
	cfg := trackers[0].Config()
	for i, tr := range trackers {
		if tr.Config() != cfg {
			return nil, fmt.Errorf("pipeline: seed tracker %d config %v differs from tracker 0's %v", i, tr.Config(), cfg)
		}
	}
	if opts.Config != (core.Config{}) && opts.Config != cfg {
		return nil, fmt.Errorf("pipeline: seed config %v, options demand %v", cfg, opts.Config)
	}
	opts.Workers = len(trackers)
	opts.Config = cfg
	opts = opts.withDefaults()
	p := newShell(opts)
	for i, tr := range trackers {
		p.start(i, tr)
	}
	p.events = offset
	return p, nil
}

// ShardTrackers exposes the per-shard trackers for an external merge.
// Only valid while the pipeline is quiescent — inside an OnCheckpoint
// hook after calling Sync, after a caller's own Sync, or after Close —
// otherwise worker goroutines are still mutating them.
func (p *Pipeline) ShardTrackers() []*core.Tracker {
	trs := make([]*core.Tracker, len(p.workers))
	for i, w := range p.workers {
		trs[i] = w.tr
	}
	return trs
}
