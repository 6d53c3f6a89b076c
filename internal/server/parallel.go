package server

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// Parallel per-session ingest. A request granted more than one worker
// splits the session tracker by PID onto that many pipeline shards
// (core.Tracker.SplitByPID with the pipeline's own shard function), feeds
// the shards from the request's one decode loop, and merges them back
// into one tracker (core.MergeTrackers). Sharding by PID preserves
// semantics — all tracker state is per-process — so a parallel session's
// verdicts and acks are identical to a 1-worker session's: byte-identical
// on single-PID tenant streams, canonical-order-identical on multi-PID
// streams (the session stores verdicts in the canonical (PID, Seq, Tag)
// order either way).

// workerBudget is the global loan pool for parallel-ingest shards: a
// counting semaphore holding Config.WorkerBudget tokens. Hot sessions
// borrow their shard count for the duration of one request; when the
// pool runs dry, later requests simply run at grant 1 — admission
// control degrades throughput, never correctness.
type workerBudget struct {
	tokens chan struct{}
}

func newWorkerBudget(n int) *workerBudget {
	b := &workerBudget{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// tryAcquire takes up to want tokens without blocking and returns how
// many it got.
func (b *workerBudget) tryAcquire(want int) int {
	for got := 0; ; got++ {
		if got == want {
			return got
		}
		select {
		case <-b.tokens:
		default:
			return got
		}
	}
}

func (b *workerBudget) release(n int) {
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
}

// grantWorkers decides a request's shard count: 1 when parallel ingest is
// disabled, the request is below the threshold, or the budget cannot
// cover at least two shards; otherwise the configured worker count,
// borrowed from the global budget. A grant > 1 must be returned with
// releaseWorkers.
func (s *Server) grantWorkers(remaining uint64) int {
	if s.cfg.IngestWorkers <= 1 || remaining < s.cfg.ParallelThreshold {
		return 1
	}
	got := s.budget.tryAcquire(s.cfg.IngestWorkers)
	if got < 2 {
		s.budget.release(got)
		return 1
	}
	s.m.workersLoaned.Add(int64(got))
	return got
}

func (s *Server) releaseWorkers(grant int) {
	s.budget.release(grant)
	s.m.workersLoaned.Add(int64(-grant))
}

// seedPipeline splits sess's tracker into grant PID shards and starts a
// pipeline over them. The split copies, so sess.tr stays the committed
// state until a successful merge replaces it.
func (s *Server) seedPipeline(sess *session, grant int) (*pipeline.Pipeline, error) {
	parts, err := sess.tr.SplitByPID(grant, func(pid uint32) int { return pipeline.ShardOf(pid, grant) })
	if err != nil {
		return nil, err
	}
	opts := pipeline.Options{Metrics: s.cfg.Registry, Observer: s.observe}
	return pipeline.NewSeeded(opts, parts, sess.acked.Load())
}

// closeAndMerge drains the pipeline and folds its shards into one
// tracker, failing if any shard faulted.
func closeAndMerge(p *pipeline.Pipeline) (*core.Tracker, error) {
	if res := p.Close(); res.Err != nil {
		return nil, res.Err
	}
	return core.MergeTrackers(p.ShardTrackers())
}

// shardFailed is the reply to a request whose sharded analysis broke: a
// server-side fault, not a client error, so it answers 500 and commits
// nothing — the client may resend the same body from the unchanged ack.
func shardFailed(sess *session, err error) *IngestError {
	return &IngestError{
		Status: http.StatusInternalServerError, Code: "shard-failed",
		Err: fmt.Errorf("session %q: %w", sess.id, err),
	}
}
