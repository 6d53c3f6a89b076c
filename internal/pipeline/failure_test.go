package pipeline_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// runEvents feeds evs through a fresh pipeline's dispatcher and closes it.
func runEvents(evs []cpu.Event, opts pipeline.Options) pipeline.Result {
	p := pipeline.New(opts)
	p.EventBatch(evs)
	return p.Close()
}

// TestWorkerPanicReported drives far more events than the worker queues
// can hold through a pipeline whose observer panics early. The panic must
// not hang the dispatcher (the poisoned worker keeps draining) and must
// surface in Result.Err, not as a process crash.
func TestWorkerPanicReported(t *testing.T) {
	evs := syntheticStream(100_000, 1, 11) // one PID: every event hits the poisoned worker
	var n atomic.Uint64
	res := runEvents(evs, pipeline.Options{
		Workers:    2,
		BatchSize:  64,
		QueueDepth: 2,
		Config:     testCfg,
		Observer: func(worker int, ev cpu.Event) {
			if n.Add(1) == 1000 {
				panic("injected failure")
			}
		},
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "injected failure") ||
		!strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("Result.Err = %v, want worker panic report", res.Err)
	}
	if res.Events != uint64(len(evs)) {
		t.Fatalf("dispatcher stopped early: %d of %d events dispatched", res.Events, len(evs))
	}
}

// TestMetricsConsistentUnderLoad samples the queue-depth gauge from a
// separate goroutine while the pipeline runs under real backpressure
// (slow observer, tiny queues) and checks the invariants: depth never
// negative, never above capacity+workers (one batch may be in flight per
// worker), zero once drained, and the dispatch counters mutually
// consistent. Run under -race this also proves the gauges are safe to
// scrape concurrently.
func TestMetricsConsistentUnderLoad(t *testing.T) {
	const workers, queueDepth, batch = 4, 2, 32
	reg := metrics.NewRegistry()
	pm := pipeline.NewPipelineMetrics(reg)
	evs := syntheticStream(60_000, 8, 13)

	stop := make(chan struct{})
	sampled := make(chan int64, 1)
	go func() {
		var peak int64
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			default:
			}
			d := pm.QueueDepth.Value()
			if d < 0 {
				t.Errorf("queue depth went negative: %d", d)
				sampled <- peak
				return
			}
			if d > peak {
				peak = d
			}
		}
	}()

	res := runEvents(evs, pipeline.Options{
		Workers:    workers,
		BatchSize:  batch,
		QueueDepth: queueDepth,
		Config:     testCfg,
		Metrics:    reg,
		Observer: func(worker int, ev cpu.Event) {
			if ev.Seq%1024 == 0 {
				time.Sleep(50 * time.Microsecond) // force real backpressure
			}
		},
	})
	close(stop)
	peak := <-sampled
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	// Every batch dispatched was fully analyzed: depth is back to zero.
	if d := pm.QueueDepth.Value(); d != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", d)
	}
	// A worker holds at most one batch beyond its queue, and the
	// dispatcher's increment-before-send can overshoot by the one batch
	// it is still handing off.
	if maxDepth := int64(workers*(queueDepth+1) + 1); peak > maxDepth {
		t.Fatalf("sampled queue depth %d exceeds bound %d", peak, maxDepth)
	}
	if got := pm.EventsDispatched.Value(); got != uint64(len(evs)) {
		t.Fatalf("events dispatched = %d, want %d", got, len(evs))
	}
	if pm.BatchesDispatched.Value() == 0 {
		t.Fatal("no batches recorded")
	}
	if got := pm.BatchEvents.Count(); got != pm.BatchesDispatched.Value() {
		t.Fatalf("batch histogram count %d != batches dispatched %d",
			got, pm.BatchesDispatched.Value())
	}
	if got := uint64(pm.BatchEvents.Sum()); got != uint64(len(evs)) {
		t.Fatalf("batch histogram sum %d != events %d", got, len(evs))
	}
	if got, want := pm.BatchSeconds.Count(), pm.BatchesDispatched.Value(); got != want {
		t.Fatalf("batch latency observations %d != batches %d", got, want)
	}
	if pm.QueueDepthHigh.Value() < peak {
		t.Fatalf("high-water %d below sampled peak %d", pm.QueueDepthHigh.Value(), peak)
	}
	if res.Stats.Loads+res.Stats.Stores == 0 {
		t.Fatal("tracker metrics never saw the stream")
	}
}

// TestPipelineMetricsParity: instrumenting a pipeline must not change
// its merged result.
func TestPipelineMetricsParity(t *testing.T) {
	evs := syntheticStream(30_000, 5, 14)
	wantStats, wantVerdicts := sequentialOracle(evs, testCfg)

	reg := metrics.NewRegistry()
	p := pipeline.New(pipeline.Options{Workers: 4, Config: testCfg, Metrics: reg})
	for _, ev := range evs {
		p.Event(ev)
	}
	res := p.Close()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Counters must be exact; the watermarks are per-shard maxima on a
	// multi-process stream, so they may only be ≤ the sequential values.
	cmp := res.Stats
	cmp.MaxBytes, cmp.MaxRanges = wantStats.MaxBytes, wantStats.MaxRanges
	if cmp != wantStats {
		t.Fatalf("stats diverge under instrumentation:\n got %+v\nwant %+v", res.Stats, wantStats)
	}
	if res.Stats.MaxBytes > wantStats.MaxBytes || res.Stats.MaxRanges > wantStats.MaxRanges {
		t.Fatalf("watermarks %d/%d exceed sequential %d/%d",
			res.Stats.MaxBytes, res.Stats.MaxRanges, wantStats.MaxBytes, wantStats.MaxRanges)
	}
	if len(res.Verdicts) != len(wantVerdicts) {
		t.Fatalf("verdicts diverge: %d vs %d", len(res.Verdicts), len(wantVerdicts))
	}
	for i := range wantVerdicts {
		if res.Verdicts[i] != wantVerdicts[i] {
			t.Fatalf("verdict %d diverges", i)
		}
	}
	// The merge gauge was set and the sum of tracker metrics matches the
	// merged stats.
	pm := pipeline.NewPipelineMetrics(reg)
	if pm.MergeNanos.Value() <= 0 {
		t.Fatal("merge duration gauge not set")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pift_tracker_taint_adds_total"]; got != wantStats.TaintOps {
		t.Fatalf("aggregated taint adds = %d, want %d", got, wantStats.TaintOps)
	}
	if got := snap.Counters["pift_tracker_sink_checks_total"]; got != wantStats.SinkChecks {
		t.Fatalf("aggregated sink checks = %d, want %d", got, wantStats.SinkChecks)
	}
}
