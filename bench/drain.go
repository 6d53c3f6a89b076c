package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// drainWorkers is the pipeline width of the file-drain workloads.
const drainWorkers = sizedCPUs

// drainBench drains one serialized trace file, whole, per op.
type drainBench struct {
	name    string
	raw     []byte // the trace file, in memory
	events  uint64
	want    oracle
	reg     *metrics.Registry // non-nil in the traced run
	warmups int

	mergeNs    int64 // sum of pift_pipeline_merge_duration_ns after each drain
	mergeCount int
}

// setupDrain builds the drain workload: a taint-dense multi-process
// corpus as a PIFTTRC1 file, encoded by the benchmark's own encoder.
func setupDrain(sz sizes, seed int64, traced bool) (bench, error) {
	evs := genCorpus(corpusSeed(seed, 0), sz.drainEvents, 64, 256, false)
	return &drainBench{name: "drain", raw: encodeV1(evs), events: uint64(len(evs)), want: replayOracle(evs),
		reg: traceRegistry(traced), warmups: sz.warmups}, nil
}

// setupScan builds the scan workload: a clean corpus (no taint sources,
// sinks still checked) as a PIFTTRC2 file from the program's writer.
func setupScan(sz sizes, seed int64, traced bool) (bench, error) {
	evs := genCorpus(corpusSeed(seed, 0), sz.scanEvents, 64, 0, true)
	raw, err := encodeV2(evs)
	if err != nil {
		return nil, err
	}
	return &drainBench{name: "scan", raw: raw, events: uint64(len(evs)), want: replayOracle(evs),
		reg: traceRegistry(traced), warmups: sz.warmups}, nil
}

// traceRegistry gives the traced run's pipelines a metrics registry; the
// untraced drains run uninstrumented, as the offline tools do by default.
func traceRegistry(traced bool) *metrics.Registry {
	if traced {
		return metrics.NewRegistry()
	}
	return nil
}

// start runs the untimed warm-up drains.
func (d *drainBench) start() error {
	for i := 0; i < d.warmups; i++ {
		if _, err := d.drain(drainWorkers, nil); err != nil {
			return fmt.Errorf("bench: %s warm-up: %w", d.name, err)
		}
	}
	return nil
}

// drain runs one whole-file DrainTrace at the given width and checks it
// against the oracle.
func (d *drainBench) drain(workers int, reg *metrics.Registry) (time.Duration, error) {
	p := pipeline.New(pipeline.Options{Workers: workers, Config: trackerConfig, Metrics: reg})
	t0 := time.Now()
	res, err := p.DrainTrace(context.Background(), bytes.NewReader(d.raw))
	el := time.Since(t0)
	if err != nil {
		return el, err
	}
	return el, d.want.check(res.Stats, res.Verdicts)
}

func (d *drainBench) epoch(m *meter, parent int) {
	id := m.spans.begin("pipeline.DrainTrace", parent)
	el, err := d.drain(drainWorkers, d.reg)
	m.spans.end(id)
	if err != nil {
		m.fail("%s: %v", d.name, err)
		return
	}
	m.op(el, d.events, uint64(len(d.raw)))
	if d.reg != nil {
		d.mergeNs += d.reg.Gauge("pift_pipeline_merge_duration_ns", "").Value()
		d.mergeCount++
	}
}

func (d *drainBench) close() {}
