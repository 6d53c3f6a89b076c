package pipeline_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/trace/tracegen"
)

// TestEventBatchRoutesLikeEvent: EventBatch routes a batch by PID run,
// one copy per run split where a shard's batch fills, and must hand every
// shard exactly the batches per-event Event calls hand it. Tracegen
// corpora cut at random into pieces of 1–600 events go through EventBatch
// at 1, 2 and 4 workers and BatchSize 1, 7 and 256. Each worker must
// analyze only its ShardOf PIDs, and Stats, verdicts, the events each
// worker analyzed, in order, and the dispatch metrics —
// pift_pipeline_batches_total and the pift_pipeline_batch_events
// histogram among them — must equal those of the same corpus fed one
// Event at a time.
func TestEventBatchRoutesLikeEvent(t *testing.T) {
	for _, spec := range []tracegen.Spec{
		{Seed: 81, Events: 12_000, PIDs: 8, Quantum: 64},
		{Seed: 82, Events: 12_000, PIDs: 64, Quantum: 3, SourceEvery: 256},
		{Seed: 83, Events: 12_000, PIDs: 1},
	} {
		evs := tracegen.Generate(spec).Events
		rng := rand.New(rand.NewPCG(uint64(spec.Seed), 600))
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []int{1, 7, 256} {
				name := fmt.Sprintf("pids=%d/q=%d/workers=%d/batch=%d", spec.PIDs, spec.Quantum, workers, batch)
				run := func(feed func(p *pipeline.Pipeline)) (pipeline.Result, [][]cpu.Event, metrics.Snapshot) {
					reg := metrics.NewRegistry()
					seen := make([][]cpu.Event, workers) // each written by its own worker only
					p := pipeline.New(pipeline.Options{
						Workers: workers, BatchSize: batch, Config: testCfg, Metrics: reg,
						Observer: func(w int, ev cpu.Event) { seen[w] = append(seen[w], ev) },
					})
					feed(p)
					res := p.Close()
					if res.Err != nil {
						t.Fatalf("%s: %v", name, res.Err)
					}
					return res, seen, reg.Snapshot()
				}
				want, wantSeen, wantM := run(func(p *pipeline.Pipeline) {
					for _, ev := range evs {
						p.Event(ev)
					}
				})
				got, gotSeen, gotM := run(func(p *pipeline.Pipeline) {
					for off := 0; off < len(evs); {
						n := min(1+rng.IntN(600), len(evs)-off)
						p.EventBatch(evs[off : off+n])
						off += n
					}
				})
				if got.Stats != want.Stats || !reflect.DeepEqual(got.Verdicts, want.Verdicts) || got.Events != want.Events {
					t.Fatalf("%s: EventBatch result differs from per-event Event", name)
				}
				if !reflect.DeepEqual(gotSeen, wantSeen) {
					t.Fatalf("%s: a worker analyzed other events than under per-event Event", name)
				}
				for w, seen := range gotSeen {
					for _, ev := range seen {
						if pipeline.ShardOf(ev.PID, workers) != w {
							t.Fatalf("%s: worker %d analyzed PID %d of shard %d", name, w, ev.PID, pipeline.ShardOf(ev.PID, workers))
						}
					}
				}
				for _, c := range []string{"pift_pipeline_batches_total", "pift_pipeline_events_total"} {
					if gotM.Counters[c] != wantM.Counters[c] {
						t.Fatalf("%s: %s = %d, per-event Event %d", name, c, gotM.Counters[c], wantM.Counters[c])
					}
				}
				h := "pift_pipeline_batch_events"
				if !reflect.DeepEqual(gotM.Histograms[h], wantM.Histograms[h]) {
					t.Fatalf("%s: %s = %+v, per-event Event %+v", name, h, gotM.Histograms[h], wantM.Histograms[h])
				}
			}
		}
	}
}
