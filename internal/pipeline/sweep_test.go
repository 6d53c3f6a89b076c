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

// TestCrashPointSweepDroidBench is the checkpoint/kill/restore sweep of
// the acceptance criteria: a real DroidBench trace is run through the
// pipeline with a checkpoint taken at every batch boundary; at each
// boundary the run is "killed" (fed a little further, then discarded), a
// fresh pipeline restored from the checkpoint bytes, the serialized trace
// re-opened and Skip()ed to the checkpoint offset, and the tail fed
// through the dispatcher the way an ingest loop does.
// Every resumed run must merge to byte-identical stats and canonically
// sorted verdicts against the sequential oracle.
func TestCrashPointSweepDroidBench(t *testing.T) {
	const batchSize = 32
	h := eval.NewHarness(1)
	apps := h.Apps()
	// Pick the longest trace of the suite so the sweep crosses many
	// batch boundaries and real window/taint state.
	var rec *trace.Recorder
	var appName string
	for _, a := range apps {
		r, err := h.AppTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil || r.Len() > rec.Len() {
			rec, appName = r, a.Name
		}
	}
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	n := rec.Len()
	t.Logf("sweeping %s: %d events, %d crash points", appName, n, n/batchSize+1)

	seq := core.NewTracker(testCfg, nil)
	rec.Replay(seq)
	wantVerdicts := append([]core.SinkVerdict(nil), seq.Verdicts()...)
	core.SortVerdicts(wantVerdicts)
	want := fmt.Sprintf("%#v|%#v", seq.Stats(), wantVerdicts)

	opts := pipeline.Options{Workers: 4, BatchSize: batchSize, Config: testCfg}
	crashPoints := []int{}
	for b := 0; b <= n; b += batchSize {
		crashPoints = append(crashPoints, b)
	}
	crashPoints = append(crashPoints, n) // resume-at-EOF edge
	for _, cut := range crashPoints {
		// Run to the crash point, checkpoint there.
		p := pipeline.New(opts)
		for _, ev := range rec.Events[:cut] {
			p.Event(ev)
		}
		var ckpt bytes.Buffer
		if _, err := p.WriteCheckpoint(&ckpt); err != nil {
			t.Fatalf("cut %d: WriteCheckpoint: %v", cut, err)
		}
		// "Kill": let the doomed run continue a bit, then discard it.
		for _, ev := range rec.Events[cut:min(cut+2*batchSize, n)] {
			p.Event(ev)
		}
		p.Close()

		// Restore and resume from the serialized trace at the offset.
		r2, err := pipeline.Restore(bytes.NewReader(ckpt.Bytes()), pipeline.Options{BatchSize: batchSize})
		if err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		res := dispatchTrace(t, r2, raw)
		if res.Err != nil {
			t.Fatalf("cut %d: resumed run: %v", cut, res.Err)
		}
		if res.Events != uint64(n) {
			t.Fatalf("cut %d: resumed run accounts %d events, want %d", cut, res.Events, n)
		}
		if got := fmt.Sprintf("%#v|%#v", res.Stats, res.Verdicts); got != want {
			t.Fatalf("cut %d: resumed result diverges from sequential oracle\n got %.300s\nwant %.300s",
				cut, got, want)
		}
	}
}

// TestCrashPointSweepShardOwned is the same kill/restore sweep under the
// shard-owned ingest: with CheckpointEvery equal to the batch size, the
// phased DrainTrace checkpoints at every batch boundary. At each boundary
// the run is killed mid-flight (the checkpoint hook writes the snapshot,
// then aborts the drain), a fresh pipeline is restored from the bytes,
// and DrainTrace resumes on the same backing trace — the planner starts
// at the restored offset, no Skip. Every resumed run must be
// byte-identical to the clean shard-owned run, which itself must match
// the sequential oracle.
func TestCrashPointSweepShardOwned(t *testing.T) {
	const batchSize = 32
	const n = 4096
	rec := tracegen.Generate(tracegen.Spec{Seed: 21, Events: n, PIDs: 8, Quantum: 16})
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()

	seq := core.NewTracker(testCfg, nil)
	rec.Replay(seq)
	wantVerdicts := append([]core.SinkVerdict(nil), seq.Verdicts()...)
	core.SortVerdicts(wantVerdicts)
	want := fmt.Sprintf("%#v|%#v", seq.Stats(), wantVerdicts)

	opts := pipeline.Options{Workers: 4, BatchSize: batchSize, Config: testCfg}
	clean, err := pipeline.New(opts).DrainTrace(context.Background(), bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%#v|%#v", clean.Stats, clean.Verdicts); got != want {
		t.Fatalf("clean shard-owned run diverges from sequential oracle\n got %.300s\nwant %.300s", got, want)
	}

	errKilled := errors.New("sweep: killed at crash point")
	t.Logf("sweeping synthetic trace: %d events, %d crash points", n, n/batchSize)
	for cut := uint64(batchSize); cut <= n; cut += batchSize {
		// Run shard-owned to the crash point; the hook checkpoints there
		// and then kills the run.
		o := opts
		o.CheckpointEvery = batchSize
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

		// Restore from the snapshot and resume shard-owned.
		r2, err := pipeline.Restore(bytes.NewReader(ckpt.Bytes()), pipeline.Options{BatchSize: batchSize})
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
		if got := fmt.Sprintf("%#v|%#v", res.Stats, res.Verdicts); got != want {
			t.Fatalf("cut %d: resumed result diverges from sequential oracle\n got %.300s\nwant %.300s",
				cut, got, want)
		}
	}
}
