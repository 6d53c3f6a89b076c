package pipeline

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// TestWorkerCountFailsShard: a count the tracker refuses, because its
// process holds taint, fails the shard: the count is never applied, the
// worker does not crash, and from then on it applies no count and answers
// no process quiet. pift_pipeline_events_total still counts every counted
// event, and pift_pipeline_worker_panics_total reads 1.
func TestWorkerCountFailsShard(t *testing.T) {
	tr := core.NewTracker(core.Config{NI: 13, NT: 3, Untaint: true}, nil)
	tr.Event(cpu.Event{Kind: cpu.EvSourceRegister, PID: 1, Seq: 1, Range: mem.MakeRange(16, 4)})
	reg := metrics.NewRegistry()
	w := newWorker(0, tr, NewPipelineMetrics(reg), 1)
	if w.Quiet(1) || !w.Quiet(2) {
		t.Fatal("PID 1 holds taint and PID 2 none, but Quiet says otherwise")
	}
	w.Count(1, 3, 4) // refused
	w.Count(2, 5, 6)
	if w.err == nil || !strings.Contains(w.err.Error(), "not quiet") {
		t.Fatalf("a refused count left err = %v", w.err)
	}
	if st := tr.Stats(); st.Loads != 0 || st.Stores != 0 || w.Quiet(2) {
		t.Fatalf("stats %+v, Quiet(2) %v; want both counts dropped and no process quiet", st, w.Quiet(2))
	}
	if got := reg.Counter("pift_pipeline_events_total", "").Value(); got != 3+4+5+6 {
		t.Fatalf("pift_pipeline_events_total = %d, want %d", got, 3+4+5+6)
	}
	if got := reg.Counter("pift_pipeline_worker_panics_total", "").Value(); got != 1 {
		t.Fatalf("pift_pipeline_worker_panics_total = %d, want 1", got)
	}
}
