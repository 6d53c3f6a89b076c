package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// parityKey reduces a run to a comparable string: stats plus canonically
// sorted verdicts. Byte-identical across wire formats on the same path
// and worker count.
func parityKey(stats core.Stats, verdicts []core.SinkVerdict) string {
	v := append([]core.SinkVerdict(nil), verdicts...)
	core.SortVerdicts(v)
	return fmt.Sprintf("%#v|%#v", stats, v)
}

// oracleKey is parityKey with the watermark fields masked: MaxBytes and
// MaxRanges are per-shard maxima, so on multi-process streams they are
// only comparable between runs at the same worker count, not against the
// sequential tracker.
func oracleKey(stats core.Stats, verdicts []core.SinkVerdict) string {
	stats.MaxBytes, stats.MaxRanges = 0, 0
	return parityKey(stats, verdicts)
}

// TestDrainTraceV2Parity is the cross-format acceptance matrix: the same
// workloads serialized as PIFTTRC1 and PIFTTRC3 must produce
// byte-identical stats and verdicts on the sequential oracle, the
// dispatcher (fed by an EventBatch loop), and the shard-owned DrainTrace
// at 1/2/4/8 workers.
func TestDrainTraceV2Parity(t *testing.T) {
	workloads := map[string]*trace.Recorder{
		"synthetic": tracegen.Generate(tracegen.Spec{Seed: 99, Events: 3*trace.DefaultBlockEvents + 777}),
	}
	h := eval.NewHarness(1)
	var longest *trace.Recorder
	for _, a := range h.Apps() {
		r, err := h.AppTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		if longest == nil || r.Len() > longest.Len() {
			longest = r
		}
	}
	workloads["droidbench"] = longest

	for name, rec := range workloads {
		t.Run(name, func(t *testing.T) {
			seq := core.NewTracker(testCfg, nil)
			rec.Replay(seq)
			want := oracleKey(seq.Stats(), seq.Verdicts())

			wire := map[trace.Format][]byte{}
			for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
				var buf bytes.Buffer
				if _, err := rec.WriteToFormat(&buf, f); err != nil {
					t.Fatal(err)
				}
				wire[f] = buf.Bytes()
			}
			if 4*len(wire[trace.FormatV2]) > len(wire[trace.FormatV1]) {
				t.Errorf("v2 is only %.2fx smaller than v1 (%d vs %d bytes), want ≥4x",
					float64(len(wire[trace.FormatV1]))/float64(len(wire[trace.FormatV2])),
					len(wire[trace.FormatV1]), len(wire[trace.FormatV2]))
			}

			// Each consumption path runs once per format; the two runs
			// must agree byte for byte (including watermarks — same path,
			// same worker count), and both must match the sequential
			// oracle on everything but the per-shard watermarks.
			runDispatch := func(raw []byte) (pipeline.Result, error) {
				res := dispatchTrace(t, pipeline.New(pipeline.Options{Workers: 4, BatchSize: 256, Config: testCfg}), raw)
				return res, res.Err
			}
			paths := map[string]func([]byte) (pipeline.Result, error){"dispatch@4": runDispatch}
			for _, workers := range []int{1, 2, 4, 8} {
				w := workers
				paths[fmt.Sprintf("DrainTrace@%d", w)] = func(raw []byte) (pipeline.Result, error) {
					return pipeline.New(pipeline.Options{Workers: w, BatchSize: 256, Config: testCfg}).
						DrainTrace(context.Background(), bytes.NewReader(raw))
				}
			}
			for path, run := range paths {
				v1res, err := run(wire[trace.FormatV1])
				if err != nil {
					t.Fatalf("%s over v1: %v", path, err)
				}
				v2res, err := run(wire[trace.FormatV2])
				if err != nil {
					t.Fatalf("%s over v2: %v", path, err)
				}
				if v2res.Events != uint64(rec.Len()) {
					t.Fatalf("%s over v2: accounted %d events, want %d", path, v2res.Events, rec.Len())
				}
				if g1, g2 := parityKey(v1res.Stats, v1res.Verdicts), parityKey(v2res.Stats, v2res.Verdicts); g1 != g2 {
					t.Fatalf("%s: v1 and v2 results differ\n  v1 %.300s\n  v2 %.300s", path, g1, g2)
				}
				if got := oracleKey(v2res.Stats, v2res.Verdicts); got != want {
					t.Fatalf("%s: diverges from sequential oracle\n got %.300s\nwant %.300s", path, got, want)
				}
			}
		})
	}
}

// TestCrashPointSweepV2 is the kill/restore sweep on the v2 path: the
// shard-owned drain over a multi-block compressed trace checkpoints at
// every CheckpointEvery boundary — including offsets that land mid-block,
// where resume has to decode the containing block and discard the prefix.
func TestCrashPointSweepV2(t *testing.T) {
	const checkpointEvery = 1024
	const n = 3*trace.DefaultBlockEvents + 300
	rec := tracegen.Generate(tracegen.Spec{Seed: 23, Events: n, PIDs: 8, Quantum: 48})
	var wire bytes.Buffer
	if _, err := rec.WriteToFormat(&wire, trace.FormatV2); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()

	seq := core.NewTracker(testCfg, nil)
	rec.Replay(seq)

	opts := pipeline.Options{Workers: 4, BatchSize: 256, Config: testCfg}
	clean, err := pipeline.New(opts).DrainTrace(context.Background(), bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got, oracle := oracleKey(clean.Stats, clean.Verdicts), oracleKey(seq.Stats(), seq.Verdicts()); got != oracle {
		t.Fatalf("clean v2 run diverges from sequential oracle\n got %.300s\nwant %.300s", got, oracle)
	}
	// Resumed runs are compared against the clean run at the same worker
	// count, where per-shard watermarks are preserved exactly.
	want := parityKey(clean.Stats, clean.Verdicts)

	errKilled := errors.New("sweep: killed at crash point")
	t.Logf("sweeping v2 trace: %d events, %d crash points", n, n/checkpointEvery)
	for cut := uint64(checkpointEvery); cut <= n; cut += checkpointEvery {
		o := opts
		o.CheckpointEvery = checkpointEvery
		var ckpt bytes.Buffer
		o.OnCheckpoint = func(p *pipeline.Pipeline) error {
			if p.Offset() != cut {
				return nil
			}
			if _, err := p.WriteCheckpoint(&ckpt); err != nil {
				return err
			}
			return errKilled
		}
		if _, err := pipeline.New(o).DrainTrace(context.Background(), bytes.NewReader(raw)); !errors.Is(err, errKilled) {
			t.Fatalf("cut %d: kill did not propagate: %v", cut, err)
		}

		r2, err := pipeline.Restore(bytes.NewReader(ckpt.Bytes()), pipeline.Options{BatchSize: 256})
		if err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		if r2.Offset() != cut {
			t.Fatalf("cut %d: restored offset %d", cut, r2.Offset())
		}
		res, err := r2.DrainTrace(context.Background(), bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("cut %d: resumed drain: %v", cut, err)
		}
		if res.Events != n {
			t.Fatalf("cut %d: resumed run accounts %d events, want %d", cut, res.Events, n)
		}
		if got := parityKey(res.Stats, res.Verdicts); got != want {
			t.Fatalf("cut %d: resumed result diverges from the clean run\n got %.300s\nwant %.300s",
				cut, got, want)
		}
	}
}
