package eval

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func TestSuiteWorkload(t *testing.T) {
	h := NewHarness(2)
	wl, err := h.SuiteWorkload(64)
	if err != nil {
		t.Fatal(err)
	}
	apps := h.Apps()
	total := 0
	for _, a := range apps {
		rec, err := h.AppTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		total += rec.Len()
	}
	if wl.Len() != total {
		t.Fatalf("workload has %d events, suite traces total %d", wl.Len(), total)
	}
	pids := map[uint32]bool{}
	for _, ev := range wl.Events {
		pids[ev.PID] = true
	}
	if len(pids) != len(apps) {
		t.Fatalf("workload spans %d PIDs, want one per app (%d)", len(pids), len(apps))
	}
	// Caching: same quantum must return the identical recorder.
	again, err := h.SuiteWorkload(64)
	if err != nil {
		t.Fatal(err)
	}
	if again != wl {
		t.Fatal("SuiteWorkload did not cache")
	}
}

func TestPipelineParityAndRender(t *testing.T) {
	h := NewHarness(2)
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	workers := []int{1, 2, 4, 8}
	rows, err := PipelineParity(h, cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(h.Apps()) * len(workers); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("%s @ %d workers diverges from sequential tracker", r.App, r.Workers)
		}
	}
	out := RenderPipelineParity(rows, cfg)
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("render reports mismatch:\n%s", out)
	}
	if !strings.Contains(out, "byte-identical") {
		t.Errorf("render missing summary:\n%s", out)
	}
}

// TestPipelineScalingAndRender runs the shard-owned scaling sweep over a
// PIFTTRC1 corpus (TestSyntheticScalingV2 covers PIFTTRC2) and renders
// its table.
func TestPipelineScalingAndRender(t *testing.T) {
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	rows, err := SyntheticScaling(cfg, []int{1, 2}, 30000, 1, trace.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Events != 30000 || r.PerSecond <= 0 || r.Elapsed <= 0 {
			t.Errorf("implausible scaling row %+v", r)
		}
	}
	if rows[0].Speedup != 1 {
		t.Errorf("baseline speedup %v, want 1", rows[0].Speedup)
	}
	out := RenderScalingTable("Shard-owned ingest scaling", rows)
	if !strings.Contains(out, "events/sec") {
		t.Errorf("render missing header:\n%s", out)
	}
}

func TestDetectedPipelineAgreesWithDetected(t *testing.T) {
	h := NewHarness(2)
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	for _, a := range h.Apps()[:8] {
		rec, err := h.AppTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := DetectedPipeline(rec, cfg, 4), Detected(rec, cfg); got != want {
			t.Errorf("%s: pipeline detected=%v, sequential=%v", a.Name, got, want)
		}
	}
}
