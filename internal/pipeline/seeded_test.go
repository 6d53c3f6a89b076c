package pipeline_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/trace/tracegen"
)

// TestSeededResumeParity is the session-embedding contract: replay a
// prefix on one sequential tracker (a live session), split it by PID
// with the pipeline's own shard function, seed a pipeline at the prefix
// offset, drain the full wire stream (DrainTrace skips the prefix), and
// the merged outcome must match a fresh pipeline that saw everything.
func TestSeededResumeParity(t *testing.T) {
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	spec := tracegen.Spec{Seed: 4, Events: 80000}
	rec := tracegen.Generate(spec)
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}

	ref := pipeline.New(pipeline.Options{Workers: 4, Config: cfg})
	refRes, err := ref.DrainTrace(context.Background(), bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range []int{0, 1, len(rec.Events) / 2, len(rec.Events)} {
		prefix := core.NewTracker(cfg, nil)
		for _, ev := range rec.Events[:off] {
			prefix.Event(ev)
		}
		parts, err := prefix.SplitByPID(4, func(pid uint32) int { return pipeline.ShardOf(pid, 4) })
		if err != nil {
			t.Fatal(err)
		}
		p, err := pipeline.NewSeeded(pipeline.Options{}, parts, uint64(off))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.DrainTrace(context.Background(), bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatalf("off=%d: %v", off, err)
		}
		if !reflect.DeepEqual(res.Verdicts, refRes.Verdicts) {
			t.Fatalf("off=%d: verdicts diverge: %d vs %d", off, len(res.Verdicts), len(refRes.Verdicts))
		}
		// Counters are exact; watermarks may only legitimately differ when
		// the seeded prefix tracker observed cross-PID totals no single
		// shard sees, so compare everything else.
		a, b := res.Stats, refRes.Stats
		a.MaxBytes, a.MaxRanges = 0, 0
		b.MaxBytes, b.MaxRanges = 0, 0
		if a != b {
			t.Fatalf("off=%d: counters diverge:\nseeded %+v\nfresh  %+v", off, a, b)
		}
		// ShardTrackers is valid after Close (DrainTrace closed the
		// pipeline); an external merge must agree with the drain result.
		merged, err := core.MergeTrackers(p.ShardTrackers())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(merged.Verdicts(), refRes.Verdicts) {
			t.Fatalf("off=%d: external merge diverges from drain result", off)
		}
	}
}

func TestNewSeededValidation(t *testing.T) {
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	seed := func(c core.Config) *core.Tracker { return core.NewTracker(c, nil) }

	if _, err := pipeline.NewSeeded(pipeline.Options{}, nil, 0); err == nil {
		t.Fatal("zero trackers accepted")
	}
	if _, err := pipeline.NewSeeded(pipeline.Options{Workers: 3}, []*core.Tracker{seed(cfg), seed(cfg)}, 0); err == nil {
		t.Fatal("conflicting Workers accepted")
	}
	if _, err := pipeline.NewSeeded(pipeline.Options{},
		[]*core.Tracker{seed(cfg), seed(core.Config{NI: 7, NT: 2})}, 0); err == nil {
		t.Fatal("mismatched seed configs accepted")
	}
	if _, err := pipeline.NewSeeded(pipeline.Options{Config: core.Config{NI: 7, NT: 2}},
		[]*core.Tracker{seed(cfg)}, 0); err == nil {
		t.Fatal("conflicting Config accepted")
	}

	p, err := pipeline.NewSeeded(pipeline.Options{}, []*core.Tracker{seed(cfg), seed(cfg)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.Offset(); got != 100 {
		t.Fatalf("seeded offset = %d, want 100", got)
	}
	if got := len(p.ShardTrackers()); got != 2 {
		t.Fatalf("ShardTrackers len = %d, want 2", got)
	}
}
