package server_test

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/trace/tracegen"
)

// parallelCfg grants every request of a test service four shards: budget
// to cover them, threshold low enough that DroidBench-sized streams
// qualify.
func parallelCfg(c *server.Config) {
	c.IngestWorkers = 4
	c.WorkerBudget = 8
	c.ParallelThreshold = 1
}

func counterOf(s *testService, name string) uint64 {
	return s.reg.Snapshot().Counters[name]
}

// TestParallelIngestParity: a whole-stream upload on a parallel service
// commits through the sharded pipeline and stays byte-identical to the
// one-shot replay — verdicts, ack offset, and stats counters.
func TestParallelIngestParity(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, parallelCfg)
	events, err := h.TenantEvents(6)
	if err != nil {
		t.Fatal(err)
	}
	ir, code := s.post(t, "par-alpha", events, 0, len(events))
	if code != http.StatusOK || ir.Acked != uint64(len(events)) || ir.Ingested != uint64(len(events)) {
		t.Fatalf("status %d %+v, want acked %d", code, ir, len(events))
	}
	if counterOf(s, "pift_server_parallel_ingests_total") == 0 {
		t.Fatal("request never took the parallel path")
	}
	requireParity(t, s.verdicts(t, "par-alpha"), eval.OneShotVerdicts(events, testCfg), "parallel-whole")

	seq := core.NewTracker(testCfg, nil)
	for _, ev := range events {
		seq.Event(ev)
	}
	st := s.stats(t, "par-alpha")
	if st.Stats != seq.Stats() {
		t.Fatalf("stats diverge:\nserver %+v\nseq    %+v", st.Stats, seq.Stats())
	}
	if g := s.reg.Snapshot().Gauges["pift_server_ingest_workers_loaned"]; g != 0 {
		t.Fatalf("worker loans leaked: %d", g)
	}
}

// TestParallelMultiPIDParity feeds an interleaved multi-process stream:
// the parallel session's verdicts must equal the sequential replay in
// canonical (PID, Seq, Tag) order and its counters must match exactly.
func TestParallelMultiPIDParity(t *testing.T) {
	events := tracegen.Generate(tracegen.Spec{Seed: 21, Events: 30000, PIDs: 16}).Events
	s := newTestService(t, parallelCfg)
	ir, code := s.post(t, "par-multi", events, 0, len(events))
	if code != http.StatusOK || ir.Acked != uint64(len(events)) {
		t.Fatalf("status %d %+v", code, ir)
	}
	if counterOf(s, "pift_server_parallel_ingests_total") == 0 {
		t.Fatal("request never took the parallel path")
	}
	want := eval.OneShotVerdicts(events, testCfg)
	core.SortVerdicts(want)
	requireParity(t, s.verdicts(t, "par-multi"), want, "parallel-multi-pid")

	seq := core.NewTracker(testCfg, nil)
	for _, ev := range events {
		seq.Event(ev)
	}
	st := s.stats(t, "par-multi")
	a, b := st.Stats, seq.Stats()
	a.MaxBytes, a.MaxRanges = 0, 0
	b.MaxBytes, b.MaxRanges = 0, 0
	if a != b {
		t.Fatalf("counters diverge:\nserver %+v\nseq    %+v", a, b)
	}
}

// TestParallelChunkedResume: the resumable-offset protocol is unchanged
// under parallel ingest — chunk acks land on chunk ends, duplicates are
// no-ops, and the stitched stream matches the one-shot replay.
func TestParallelChunkedResume(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, parallelCfg)
	events, err := h.TenantEvents(7)
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 5
	per := (len(events) + chunks - 1) / chunks
	for start := 0; start < len(events); start += per {
		end := start + per
		if end > len(events) {
			end = len(events)
		}
		ir, code := s.post(t, "par-chunk", events, start, end)
		if code != http.StatusOK || ir.Acked != uint64(end) {
			t.Fatalf("chunk [%d,%d): status %d %+v", start, end, code, ir)
		}
	}
	if ir, code := s.post(t, "par-chunk", events, 0, per); code != http.StatusOK || ir.Ingested != 0 {
		t.Fatalf("duplicate chunk: status %d %+v", code, ir)
	}
	requireParity(t, s.verdicts(t, "par-chunk"), eval.OneShotVerdicts(events, testCfg), "parallel-chunked")
}

// TestParallelSpillByteIdentity: after identical single-PID uploads, a
// sequential service and a parallel one must write byte-identical
// PIFTSES1 spill files — the canonical snapshot codec erases any trace
// of how the tracker state was computed.
func TestParallelSpillByteIdentity(t *testing.T) {
	h := sharedHarness(t)
	events, err := h.TenantEvents(9)
	if err != nil {
		t.Fatal(err)
	}
	spillOf := func(s *testService) []byte {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(s.dir, "*.sess"))
		if err != nil || len(matches) != 1 {
			t.Fatalf("spill files %v err %v, want exactly one", matches, err)
		}
		b, err := os.ReadFile(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := newTestService(t, func(c *server.Config) { c.MemoryBudget = 1 })
	par := newTestService(t, func(c *server.Config) { parallelCfg(c); c.MemoryBudget = 1 })
	for _, s := range []*testService{seq, par} {
		if ir, code := s.post(t, "spill-id", events, 0, len(events)); code != http.StatusOK {
			t.Fatalf("ingest: status %d %+v", code, ir)
		}
	}
	if counterOf(par, "pift_server_parallel_ingests_total") == 0 {
		t.Fatal("parallel service never took the parallel path")
	}
	if !bytes.Equal(spillOf(seq), spillOf(par)) {
		t.Fatal("spill files diverge between sequential and parallel ingest")
	}
}

// TestWorkerBudgetExhausted: with a budget that cannot cover two shards,
// every request runs at grant 1 — correct results, zero parallel commits.
func TestWorkerBudgetExhausted(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, func(c *server.Config) {
		parallelCfg(c)
		c.WorkerBudget = 1
	})
	events, err := h.TenantEvents(1)
	if err != nil {
		t.Fatal(err)
	}
	ir, code := s.post(t, "starved", events, 0, len(events))
	if code != http.StatusOK || ir.Acked != uint64(len(events)) {
		t.Fatalf("status %d %+v", code, ir)
	}
	if n := counterOf(s, "pift_server_parallel_ingests_total"); n != 0 {
		t.Fatalf("starved budget still ran %d parallel ingests", n)
	}
	requireParity(t, s.verdicts(t, "starved"), eval.OneShotVerdicts(events, testCfg), "starved")
}
