package eval

// Machine-readable pipeline benchmark artifact: the parity and scaling
// experiments of pipeline.go re-run with an instrumented registry, so CI
// can archive one JSON file holding both the experiment tables and the
// full metrics snapshot of the dispatcher's suite sweep (queue depths and
// stall counts, which only the dispatcher has, and batch latency
// histograms) behind them.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// PipelineBenchResult is the JSON artifact piftbench -exp pipeline writes.
// Scaling rows come from an instrumented sweep, so the embedded snapshot's
// pipeline counters cover exactly the runs reported in Scaling.
type PipelineBenchResult struct {
	Config  core.Config `json:"config"`
	Workers []int       `json:"workers"`
	Quantum int         `json:"quantum"`
	Repeats int         `json:"repeats"`
	// NumCPU records the parallelism of the measuring machine
	// (runtime.NumCPU at measurement time). Scaling assertions are only
	// physically meaningful when the machine has at least as many CPUs as
	// the run has workers; benchgate's -min-scaling gate consults this
	// field and skips enforcement on machines that cannot exhibit the
	// speedup being gated.
	NumCPU  int                  `json:"num_cpu"`
	Parity  []PipelineParityRow  `json:"parity"`
	Scaling []PipelineScalingRow `json:"scaling"`
	// SyntheticEvents is the size of the tracegen corpus behind
	// Synthetic; zero means the synthetic sweep was not run.
	SyntheticEvents int `json:"synthetic_events,omitempty"`
	// WireFormat is the trace format the synthetic corpus was serialized
	// in for the Synthetic sweep ("PIFTTRC1" or "PIFTTRC2").
	WireFormat string `json:"wire_format,omitempty"`
	// Synthetic is the shard-owned ingest scaling sweep (DrainTrace over
	// the serialized synthetic corpus) — the table the scaling-gate CI
	// job enforces.
	Synthetic []PipelineScalingRow `json:"synthetic_scaling,omitempty"`
	// Wire is the per-corpus compression table (DroidBench apps, the
	// suite interleave, synthetic corpora) and BytesPerEventV2 its
	// event-weighted average — the number -max-bytes-per-event gates.
	Wire            []WireRow `json:"wire,omitempty"`
	BytesPerEventV2 float64   `json:"bytes_per_event_v2,omitempty"`
	// DecodeV1PerSec / DecodeV2PerSec compare full-drain decode
	// throughput of the two formats; -min-decode-ratio gates their ratio.
	DecodeV1PerSec float64 `json:"decode_v1_per_sec,omitempty"`
	DecodeV2PerSec float64 `json:"decode_v2_per_sec,omitempty"`
	// AllocsPerEvent is the steady-state heap allocation rate of a warm
	// single-worker pipeline (second replay of the suite workload through
	// the same pipeline, Mallocs delta over event count). The hot path is
	// allocation-free by design, so this sits near zero; it is nonzero only
	// because a GC between the warm-up and the measured pass may empty the
	// dispatcher's batch sync.Pool, forcing a bounded refill.
	AllocsPerEvent float64          `json:"allocs_per_event"`
	Snapshot       metrics.Snapshot `json:"metrics"`
}

// PipelineBench runs the parity check, an instrumented scaling sweep
// over the DroidBench suite workload, and — when syntheticEvents > 0 —
// the shard-owned synthetic scaling sweep (over the corpus serialized in
// wireFormat), the wire-compression table, and the cross-format decode
// benchmark, returning the tables plus the registry snapshot of the
// suite sweep.
func PipelineBench(h *Harness, cfg core.Config, workerCounts []int, quantum, repeats, syntheticEvents int, wireFormat trace.Format) (*PipelineBenchResult, error) {
	parity, err := PipelineParity(h, cfg, workerCounts)
	if err != nil {
		return nil, err
	}
	wl, err := h.SuiteWorkload(quantum)
	if err != nil {
		return nil, err
	}
	if repeats < 1 {
		repeats = 3
	}
	reg := metrics.NewRegistry()
	var rows []PipelineScalingRow
	for _, n := range workerCounts {
		best := time.Duration(0)
		for k := 0; k < repeats; k++ {
			p := pipeline.New(pipeline.Options{Workers: n, Config: cfg, Metrics: reg})
			start := time.Now()
			wl.Replay(p)
			res := p.Close()
			elapsed := time.Since(start)
			if res.Err != nil {
				return nil, res.Err
			}
			if res.Events != uint64(wl.Len()) {
				return nil, fmt.Errorf("eval: pipeline dropped events: %d of %d", res.Events, wl.Len())
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		row := PipelineScalingRow{
			Workers:   n,
			Events:    wl.Len(),
			Elapsed:   best,
			PerSecond: float64(wl.Len()) / best.Seconds(),
		}
		if len(rows) > 0 {
			row.Speedup = row.PerSecond / rows[0].PerSecond
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
	}
	allocs, err := allocsPerEvent(wl, cfg)
	if err != nil {
		return nil, err
	}
	var synthetic []PipelineScalingRow
	var wire []WireRow
	var decode *DecodeBenchResult
	if syntheticEvents > 0 {
		synthetic, err = SyntheticScaling(cfg, workerCounts, syntheticEvents, repeats, wireFormat)
		if err != nil {
			return nil, err
		}
		wire, err = WireCompression(h, quantum, syntheticEvents)
		if err != nil {
			return nil, err
		}
		decode, err = DecodeBench(syntheticEvents, repeats)
		if err != nil {
			return nil, err
		}
	}
	res := &PipelineBenchResult{
		Config:          cfg,
		Workers:         workerCounts,
		Quantum:         quantum,
		Repeats:         repeats,
		NumCPU:          runtime.NumCPU(),
		Parity:          parity,
		Scaling:         rows,
		SyntheticEvents: syntheticEvents,
		WireFormat:      wireFormat.String(),
		Synthetic:       synthetic,
		Wire:            wire,
		BytesPerEventV2: AverageBytesPerEvent(wire),
		AllocsPerEvent:  allocs,
		Snapshot:        reg.Snapshot(),
	}
	if decode != nil {
		res.DecodeV1PerSec = decode.V1PerSec
		res.DecodeV2PerSec = decode.V2PerSec
	}
	return res, nil
}

// SyntheticScaling times the shard-owned ingest (Pipeline.DrainTrace)
// over a seeded tracegen corpus, serialized in format f, at each worker
// count. Unlike PipelineScaling — which replays an in-memory recorder
// through the single dispatcher (Event) — this sweep starts from
// serialized bytes and measures the whole ingest, not just the analysis:
// every worker reads the whole trace and keeps its own PIDs' events, so
// the analysis and the decoding of kept events split across workers,
// while reading past the other shards' events (validating v1 records,
// stepping over v2 PID runs) is paid by every worker.
// Every run's verdicts are checked byte-identical to the first, so a
// scaling number can never be quoted on a wrong answer.
func SyntheticScaling(cfg core.Config, workerCounts []int, events, repeats int, f trace.Format) ([]PipelineScalingRow, error) {
	if repeats < 1 {
		repeats = 3
	}
	var wire bytes.Buffer
	if _, err := tracegen.Generate(tracegen.Spec{Seed: 1, Events: events}).WriteToFormat(&wire, f); err != nil {
		return nil, err
	}
	raw := wire.Bytes()
	var want string
	var rows []PipelineScalingRow
	for _, n := range workerCounts {
		best := time.Duration(0)
		for k := 0; k < repeats; k++ {
			p := pipeline.New(pipeline.Options{Workers: n, Config: cfg})
			start := time.Now()
			res, err := p.DrainTrace(context.Background(), bytes.NewReader(raw))
			elapsed := time.Since(start)
			if err != nil {
				return nil, err
			}
			if res.Events != uint64(events) {
				return nil, fmt.Errorf("eval: shard-owned drain accounted %d of %d events", res.Events, events)
			}
			key := fmt.Sprintf("%#v", res.Verdicts)
			if want == "" {
				want = key
			} else if key != want {
				return nil, fmt.Errorf("eval: %d-worker verdicts diverge on the synthetic corpus", n)
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		row := PipelineScalingRow{
			Workers:   n,
			Events:    events,
			Elapsed:   best,
			PerSecond: float64(events) / best.Seconds(),
		}
		if len(rows) > 0 {
			row.Speedup = row.PerSecond / rows[0].PerSecond
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// allocsPerEvent measures the steady-state allocation rate of the hot
// path: one warm-up replay grows every reusable buffer (range-set backing
// arrays, the dispatcher's pooled batches, worker queues) to its high-water
// size, then a second replay through the same pipeline is bracketed by
// MemStats reads. Sync, not Close, bounds each replay so the pipeline —
// and its warm state — survives into the measured pass.
func allocsPerEvent(wl *trace.Recorder, cfg core.Config) (float64, error) {
	if wl.Len() == 0 {
		return 0, nil
	}
	p := pipeline.New(pipeline.Options{Workers: 1, Config: cfg})
	wl.Replay(p)
	p.Sync()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wl.Replay(p)
	p.Sync()
	runtime.ReadMemStats(&after)
	res := p.Close()
	if res.Err != nil {
		return 0, res.Err
	}
	return float64(after.Mallocs-before.Mallocs) / float64(wl.Len()), nil
}

// WriteJSON serializes the artifact, indented for human diffing.
func (r *PipelineBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
