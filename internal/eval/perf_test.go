package eval

import (
	"flag"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

var perfFloors = flag.Bool("perf.floors", false, "run TestPerfFloors: the timed decode and scaling floors")

// TestPerfFloors holds the bounds that are timings, so they mean
// something only on a quiet machine and run only on request:
//
//	go test ./internal/eval -run TestPerfFloors -count=1 -v -perf.floors
//
// Each subtest times the corpus, worker counts and best-of-3 estimator
// that piftbench's experiments print. A scaling floor bounds the
// 4-worker speedup over 1 worker, which a machine with fewer than 4 CPUs
// cannot show, so there it skips and names the CPU count.
func TestPerfFloors(t *testing.T) {
	if !*perfFloors {
		t.Skip("timed floors run only with -perf.floors")
	}
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	workers := []int{1, 2, 4, 8}

	// PIFTTRC3 must not buy its bytes with decode time.
	t.Run("decode", func(t *testing.T) {
		const floor = 0.75
		dec, err := DecodeBench(1<<21, 3)
		if err != nil {
			t.Fatal(err)
		}
		msg := fmt.Sprintf("v2 decodes at %.2fx of v1 (%.0f vs %.0f ev/s), floor %.2f",
			dec.Ratio, dec.V2PerSec, dec.V1PerSec, floor)
		if dec.Ratio < floor {
			t.Error(msg)
		} else {
			t.Log(msg)
		}
	})
	t.Run("drain-scaling", func(t *testing.T) {
		skipBelowCPUs(t, 4)
		rows, err := SyntheticScaling(cfg, workers, 1<<21, 3, trace.FormatV2)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(RenderScalingTable("Shard-owned ingest scaling (2 Mi-event PIFTTRC3 corpus)", rows))
		checkSpeedup(t, rows, 4, 1.5)
	})
	t.Run("server-scaling", func(t *testing.T) {
		skipBelowCPUs(t, 4)
		rows, err := ServerBench(cfg, workers, 1<<20, 3, trace.FormatV2)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(RenderScalingTable("Server session-ingest scaling (1 Mi-event PIFTTRC3 corpus)", rows))
		checkSpeedup(t, rows, 4, 1.5)
	})
}

// skipBelowCPUs skips a scaling floor on a machine that cannot run n
// workers at once.
func skipBelowCPUs(t *testing.T, n int) {
	t.Helper()
	if cpus := runtime.NumCPU(); cpus < n {
		t.Skipf("NumCPU=%d: a %d-worker speedup needs at least %d CPUs; floor not enforced", cpus, n, n)
	}
}

// checkSpeedup fails unless the sweep's row at n workers is at least
// floor times as fast as its first row.
func checkSpeedup(t *testing.T, rows []PipelineScalingRow, n int, floor float64) {
	t.Helper()
	for _, r := range rows {
		if r.Workers == n {
			if r.Speedup < floor {
				t.Errorf("speedup %.2fx at %d workers, floor %.2fx (NumCPU=%d)", r.Speedup, n, floor, runtime.NumCPU())
			}
			return
		}
	}
	t.Fatalf("no row at %d workers", n)
}

// TestPipelineSteadyStateAllocs bounds the heap allocation rate of the
// dispatcher route in steady state. A warm-up replay of the suite
// workload grows every reusable buffer (range-set backing arrays, batch
// slices) to its high-water size; a second replay through the same
// pipeline is then bracketed by MemStats reads. Sync, not Close, ends
// each replay, so the warm pipeline survives into the measured pass. The
// bound leaves room for the taint range sets and the verdict list: they
// still hold the warm-up's state, so the measured pass grows them past
// the warm-up's high-water size.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	wl, err := NewHarness(2).SuiteWorkload(64)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(pipeline.Options{Workers: 1, Config: core.Config{NI: 13, NT: 3, Untaint: true}})
	wl.Replay(p)
	p.Sync()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wl.Replay(p)
	p.Sync()
	runtime.ReadMemStats(&after)
	if res := p.Close(); res.Err != nil {
		t.Fatal(res.Err)
	}
	const bound = 0.01
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(wl.Len())
	t.Logf("%.4f allocs/event over %d events", perEvent, wl.Len())
	if perEvent > bound {
		t.Errorf("%.4f allocs/event in steady state, bound %.2f", perEvent, bound)
	}
}

// TestServerBench smoke-tests the server sweep TestPerfFloors times, in
// both wire formats at grants 1 and 2; ServerBench checks every run's
// verdicts against the sequential replay.
func TestServerBench(t *testing.T) {
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		rows, err := ServerBench(cfg, []int{1, 2}, 30000, 1, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(rows) != 2 || rows[0].Events != 30000 || rows[0].Speedup != 1 {
			t.Fatalf("%s: unexpected sweep shape: %+v", f, rows)
		}
	}
}
