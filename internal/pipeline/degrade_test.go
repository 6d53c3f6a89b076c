package pipeline_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// TestRestartWithinBudget: a worker that panics once under a nonzero
// restart budget must skip the poisonous event, finish its stream, and
// report the fault without failing the run. Exactly the skipped event is
// missing from the merged stats.
func TestRestartWithinBudget(t *testing.T) {
	evs := syntheticStream(30_000, 1, 17) // single PID: one shard carries everything
	want, _ := sequentialOracle(evs, testCfg)

	var seen uint64
	res := runEvents(evs, pipeline.Options{
		Workers:     2,
		BatchSize:   64,
		Config:      testCfg,
		MaxRestarts: 2,
		Observer: func(worker int, ev cpu.Event) {
			seen++
			if seen == 5_000 {
				panic("transient fault")
			}
		},
	})
	if res.Err != nil {
		t.Fatalf("run failed despite restart budget: %v", res.Err)
	}
	if res.Degraded {
		t.Fatal("run marked degraded after an in-budget restart")
	}
	if len(res.Faults) != 1 {
		t.Fatalf("Faults = %+v, want exactly one report", res.Faults)
	}
	f := res.Faults[0]
	if f.Failed || f.Restarts != 1 || f.DroppedEvents != 1 || f.DroppedBatches != 0 {
		t.Fatalf("fault report %+v, want one restart dropping one event", f)
	}
	if f.Err == nil || !strings.Contains(f.Err.Error(), "transient fault") {
		t.Fatalf("fault error %v", f.Err)
	}
	// Exactly one event is missing from the merge.
	got := res.Stats.Loads + res.Stats.Stores + res.Stats.SourceRegs + res.Stats.SinkChecks
	total := want.Loads + want.Stores + want.SourceRegs + want.SinkChecks
	if got != total-1 {
		t.Fatalf("merged %d events, want %d (all but the skipped one)", got, total-1)
	}
}

// TestRestartBudgetExhausted: K+1 panics on one shard must fail that
// shard only — the run completes, the other shards' results are intact,
// and the Result reports the degradation explicitly. Run under -race this
// is the no-hang/no-escape acceptance proof.
func TestRestartBudgetExhausted(t *testing.T) {
	const workers, maxRestarts = 4, 2
	evs := syntheticStream(20_000, 1, 12) // PID 1: healthy stream
	// Find a PID on a different shard to poison.
	poisonPID := uint32(2)
	for pipeline.ShardOf(poisonPID, workers) == pipeline.ShardOf(1, workers) {
		poisonPID++
	}
	poisonShard := pipeline.ShardOf(poisonPID, workers)
	var poison []cpu.Event
	for i := 0; i < 1_000; i++ {
		poison = append(poison, cpu.Event{Kind: cpu.EvLoad, PID: poisonPID, Seq: uint64(i + 1)})
	}
	seqStats, seqVerdicts := sequentialOracle(evs, testCfg)

	reg := metrics.NewRegistry()
	all := append(append([]cpu.Event(nil), poison...), evs...)
	res := runEvents(all, pipeline.Options{
		Workers:     workers,
		BatchSize:   32,
		Config:      testCfg,
		MaxRestarts: maxRestarts,
		Metrics:     reg,
		Observer: func(worker int, ev cpu.Event) {
			if ev.PID == poisonPID {
				panic("persistent fault")
			}
		},
	})
	if res.Err == nil {
		t.Fatal("exhausted restart budget must surface as an error")
	}
	if !res.Degraded {
		t.Fatal("Result not marked Degraded")
	}
	if len(res.Faults) != 1 {
		t.Fatalf("Faults = %+v, want one report", res.Faults)
	}
	f := res.Faults[0]
	if f.Worker != poisonShard || !f.Failed || f.Restarts != maxRestarts {
		t.Fatalf("fault report %+v, want failed shard %d after %d restarts", f, poisonShard, maxRestarts)
	}
	// Every poison event was discarded: the restarted ones one at a time,
	// the rest with the shard's abandonment.
	if want := uint64(len(poison)); f.DroppedEvents != want {
		t.Fatalf("DroppedEvents = %d, want %d", f.DroppedEvents, want)
	}
	// The healthy shards' merged output is complete and correct.
	if res.Stats.SinkChecks != seqStats.SinkChecks || res.Stats.TaintOps != seqStats.TaintOps {
		t.Fatalf("healthy shard stats corrupted: got %+v, want %+v", res.Stats, seqStats)
	}
	if len(res.Verdicts) != len(seqVerdicts) {
		t.Fatalf("healthy shard verdicts lost: %d, want %d", len(res.Verdicts), len(seqVerdicts))
	}
	// The degradation counters tell the same story.
	snap := reg.Snapshot()
	if got := snap.Counters["pift_pipeline_worker_restarts_total"]; got != maxRestarts {
		t.Fatalf("restart counter = %d, want %d", got, maxRestarts)
	}
	if got := snap.Counters["pift_pipeline_shard_failures_total"]; got != 1 {
		t.Fatalf("shard failure counter = %d, want 1", got)
	}
	if got := snap.Counters["pift_pipeline_dropped_events_total"]; got != uint64(len(poison)) {
		t.Fatalf("dropped events counter = %d, want %d", got, len(poison))
	}
}

// TestCheckpointRefusedAfterFault: a faulted pipeline must refuse to
// checkpoint — its state diverged from the clean execution, and resuming
// from it would silently bake the divergence in.
func TestCheckpointRefusedAfterFault(t *testing.T) {
	evs := syntheticStream(5_000, 1, 4)
	var seen uint64
	p := pipeline.New(pipeline.Options{
		Workers:     1,
		BatchSize:   32,
		Config:      testCfg,
		MaxRestarts: 5,
		Observer: func(worker int, ev cpu.Event) {
			seen++
			if seen == 100 {
				panic("sneaky fault")
			}
		},
	})
	for _, ev := range evs {
		p.Event(ev)
	}
	var buf bytes.Buffer
	if _, err := p.WriteCheckpoint(&buf); err == nil ||
		!strings.Contains(err.Error(), "checkpoint refused") {
		t.Fatalf("WriteCheckpoint after fault: err = %v, want refusal", err)
	}
	res := p.Close()
	if res.Degraded {
		t.Fatal("in-budget restart must not degrade the run")
	}
}
