package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// TestWorkerCountRestartContract: a count the tracker refuses, because
// its process holds taint, is a shard fault under the restart policy: the
// count's events are dropped and never applied, and the worker does not
// crash. Within the budget the shard goes on and applies the next count;
// past it the shard fails, answers no PID quiet, and drops every later
// count. pift_pipeline_events_total counts every counted event either
// way.
func TestWorkerCountRestartContract(t *testing.T) {
	for _, maxRestarts := range []int{0, 1} {
		tr := core.NewTracker(core.Config{NI: 13, NT: 3, Untaint: true}, nil)
		tr.Event(cpu.Event{Kind: cpu.EvSourceRegister, PID: 1, Seq: 1, Range: mem.MakeRange(16, 4)})
		reg := metrics.NewRegistry()
		w := newWorker(0, tr, NewPipelineMetrics(reg), 1, maxRestarts)
		if w.Quiet(1) || !w.Quiet(2) {
			t.Fatal("PID 1 holds taint and PID 2 none, but Quiet says otherwise")
		}
		w.Count(1, 3, 4) // refused
		w.Count(2, 5, 6)
		f, faulted := w.fault()
		if !faulted || f.Err == nil {
			t.Fatalf("restarts=%d: a refused count left no fault", maxRestarts)
		}
		st := tr.Stats()
		if maxRestarts == 0 {
			if !f.Failed || f.DroppedEvents != 3+4+5+6 || st.Loads != 0 || st.Stores != 0 || w.Quiet(2) {
				t.Fatalf("restarts=0: fault %+v, stats %+v, Quiet(2) %v; want the shard failed and both counts dropped", f, st, w.Quiet(2))
			}
		} else if f.Failed || f.Restarts != 1 || f.DroppedEvents != 3+4 || st.Loads != 5 || st.Stores != 6 {
			t.Fatalf("restarts=1: fault %+v, stats %+v; want one restart, the refused count dropped and the next applied", f, st)
		}
		if got := reg.Counter("pift_pipeline_events_total", "").Value(); got != 3+4+5+6 {
			t.Fatalf("restarts=%d: pift_pipeline_events_total = %d, want %d", maxRestarts, got, 3+4+5+6)
		}
	}
}
