package eval_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
)

// TestWireCompression is the compression acceptance bar from the wire
// format's design brief: at most 6 bytes/event averaged over DroidBench
// and the synthetic corpora (25 bytes/event on v1 — at least a 4x
// reduction), with every corpus's v2 bytes verified to decode back to
// the exact event sequence before a size is quoted.
func TestWireCompression(t *testing.T) {
	h := eval.NewHarness(10)
	rows, err := eval.WireCompression(h, 64, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("only %d corpora measured", len(rows))
	}
	avg := eval.AverageBytesPerEvent(rows)
	t.Logf("\n%s", eval.RenderWire(rows, nil))
	if avg > 6 {
		t.Fatalf("average v2 wire cost %.2f bytes/event, want ≤6", avg)
	}
	// The ≥4x reduction is an aggregate bar: tiny apps (tens of events)
	// amortize the fixed 16-byte header badly, so individually they only
	// need to clear a 3x sanity floor.
	var v1Total, v2Total int
	for _, r := range rows {
		v1Total += r.V1Bytes
		v2Total += r.V2Bytes
		if r.Ratio < 3 {
			t.Errorf("%s: v2 only %.2fx smaller than v1, want ≥3x", r.Corpus, r.Ratio)
		}
	}
	if overall := float64(v1Total) / float64(v2Total); overall < 4 {
		t.Fatalf("overall reduction %.2fx across all corpora, want ≥4x", overall)
	}
}

// TestDecodeBench smoke-tests the decode comparison: both drains complete
// and the render includes both numbers. The throughput floor itself is
// TestPerfFloors/decode, which runs only with -perf.floors.
func TestDecodeBench(t *testing.T) {
	dec, err := eval.DecodeBench(30000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dec.V1PerSec <= 0 || dec.V2PerSec <= 0 || dec.Ratio <= 0 {
		t.Fatalf("degenerate decode bench: %+v", dec)
	}
	out := eval.RenderWire(nil, dec)
	if !strings.Contains(out, "decode throughput") {
		t.Fatalf("render missing decode line:\n%s", out)
	}
}

// TestSyntheticScalingV2 runs the shard-owned scaling sweep over a
// v2-serialized corpus — the configuration TestPerfFloors/drain-scaling
// times.
func TestSyntheticScalingV2(t *testing.T) {
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	rows, err := eval.SyntheticScaling(cfg, []int{1, 2}, 30000, 1, trace.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Events != 30000 {
		t.Fatalf("unexpected sweep shape: %+v", rows)
	}
}
