package eval

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/droidbench"
	"repro/internal/pipeline"
)

// TestStackVMExperiment runs the -exp stackvm analysis end to end and
// pins its headline result: the DIFT oracle is exact, the unbounded
// window matches it, and the finite window misses exactly the deep
// spill/reload apps.
func TestStackVMExperiment(t *testing.T) {
	h := NewHarness(3)
	r, err := StackVM(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 11 {
		t.Fatalf("%d rows, want 11", len(r.Rows))
	}
	wantMiss := map[string]bool{
		"SSpillReloadSerialSms": true,
		"SSpillDeepImeiHttp":    true,
	}
	for _, row := range r.Rows {
		if row.Dift != row.Leaky {
			t.Errorf("%s: DIFT %v vs ground truth %v", row.App, row.Dift, row.Leaky)
		}
		if row.Unbounded != row.Leaky {
			t.Errorf("%s: PIFT@inf %v vs ground truth %v", row.App, row.Unbounded, row.Leaky)
		}
		wantPaper := row.Leaky && !wantMiss[row.App]
		if row.Paper != wantPaper {
			t.Errorf("%s: PIFT@paper %v, want %v", row.App, row.Paper, wantPaper)
		}
		if row.Events == 0 {
			t.Errorf("%s: empty trace", row.App)
		}
	}
	fes := r.Breakdown.Frontends()
	if len(fes) != 2 || fes[0] != "dalvik" || fes[1] != "stackvm" {
		t.Fatalf("breakdown frontends %v, want [dalvik stackvm]", fes)
	}
	for _, fe := range fes {
		c, ok := r.Breakdown.Get(fe)
		if !ok || c.StoreToLastLoad.Count() == 0 {
			t.Errorf("%s: empty distance population", fe)
		}
	}
	out := r.Render()
	for _, want := range []string{"window miss", "dalvik", "stackvm", "8/8"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FALSE POSITIVE") {
		t.Errorf("render reports a false positive:\n%s", out)
	}
}

// TestStackVMPipelineParity is the cross-frontend pipeline parity gate:
// stack-VM traces must flow through the concurrent pipeline — via the
// dispatcher (Event, as an in-process sink) and the shard-owned
// DrainTrace over the serialized trace — byte-identically to the
// sequential tracker at every worker count.
func TestStackVMPipelineParity(t *testing.T) {
	h := NewHarnessSuite(3, droidbench.StackVMSuite())
	workers := []int{1, 2, 4, 8}

	rows, err := PipelineParity(h, PaperConfig, workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("sink path: %s @ %d workers diverges", r.App, r.Workers)
		}
	}

	for _, a := range h.Apps() {
		rec, err := h.AppTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()

		seq := core.NewTracker(PaperConfig, nil)
		rec.Replay(seq)
		verdicts := append([]core.SinkVerdict(nil), seq.Verdicts()...)
		core.SortVerdicts(verdicts)
		want := fmt.Sprintf("%#v|%#v", seq.Stats(), verdicts)

		for _, n := range workers {
			opts := pipeline.Options{Workers: n, Config: PaperConfig}
			res, err := pipeline.New(opts).DrainTrace(context.Background(), bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("%s @ %d workers: DrainTrace: %v", a.Name, n, err)
			}
			if got := fmt.Sprintf("%#v|%#v", res.Stats, res.Verdicts); got != want {
				t.Errorf("%s @ %d workers: DrainTrace diverges from sequential tracker", a.Name, n)
			}
		}
	}
}
