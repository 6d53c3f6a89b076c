package eval

// This file holds the pipeline experiments: parity of the sharded
// asynchronous analyzer against the sequential oracle on the DroidBench
// suite, and its scaling on a multi-process workload — the software
// analogue of the paper's application-core/analysis-core split (§3).

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// SuiteWorkload builds the multi-process DroidBench workload: every app
// of the Figure 10/11 corpus re-tagged with a distinct PID and
// interleaved round-robin with the given context-switch quantum. This is
// the stream a phone's analysis core would see with the whole suite
// running concurrently. The result is cached per quantum.
func (h *Harness) SuiteWorkload(quantum int) (*trace.Recorder, error) {
	if h.suiteWorkloads == nil {
		h.suiteWorkloads = make(map[int]*trace.Recorder)
	}
	if rec, ok := h.suiteWorkloads[quantum]; ok {
		return rec, nil
	}
	apps := h.Apps()
	streams := make([][]cpu.Event, 0, len(apps))
	for i, a := range apps {
		rec, err := h.AppTrace(a)
		if err != nil {
			return nil, err
		}
		pid := uint32(i + 1)
		evs := make([]cpu.Event, len(rec.Events))
		for j, ev := range rec.Events {
			ev.PID = pid
			evs[j] = ev
		}
		streams = append(streams, evs)
	}
	rec := &trace.Recorder{Events: trace.Interleave(quantum, streams...)}
	h.suiteWorkloads[quantum] = rec
	return rec, nil
}

// PipelineParityRow records one app × worker-count comparison between the
// pipeline and the sequential tracker.
type PipelineParityRow struct {
	App     string
	Workers int
	Match   bool
}

// PipelineParity replays every DroidBench trace through the sequential
// tracker and through the pipeline at each worker count, comparing merged
// stats and canonically ordered verdicts byte for byte.
func PipelineParity(h *Harness, cfg core.Config, workerCounts []int) ([]PipelineParityRow, error) {
	var rows []PipelineParityRow
	for _, app := range h.Apps() {
		rec, err := h.AppTrace(app)
		if err != nil {
			return nil, err
		}
		seq := core.NewTracker(cfg, nil)
		rec.Replay(seq)
		verdicts := append([]core.SinkVerdict(nil), seq.Verdicts()...)
		core.SortVerdicts(verdicts)
		want := fmt.Sprintf("%#v|%#v", seq.Stats(), verdicts)
		for _, n := range workerCounts {
			p := pipeline.New(pipeline.Options{Workers: n, Config: cfg})
			rec.Replay(p)
			res := p.Close()
			got := fmt.Sprintf("%#v|%#v", res.Stats, res.Verdicts)
			rows = append(rows, PipelineParityRow{App: app.Name, Workers: n, Match: got == want})
		}
	}
	return rows, nil
}

// RenderPipelineParity summarizes the parity sweep, listing any diverging
// combination explicitly.
func RenderPipelineParity(rows []PipelineParityRow, cfg core.Config) string {
	var b strings.Builder
	mismatches := 0
	for _, r := range rows {
		if !r.Match {
			mismatches++
			fmt.Fprintf(&b, "  MISMATCH: %s @ %d workers\n", r.App, r.Workers)
		}
	}
	head := fmt.Sprintf("Pipeline parity (%v): %d of %d app×worker runs byte-identical to the sequential tracker",
		cfg, len(rows)-mismatches, len(rows))
	if mismatches == 0 {
		return head
	}
	return head + "\n" + b.String()
}

// PipelineScalingRow is one point of the worker-count sweep.
type PipelineScalingRow struct {
	Workers   int
	Events    int
	Elapsed   time.Duration
	PerSecond float64
	Speedup   float64 // relative to the first row
}

// SyntheticScaling times the shard-owned ingest (Pipeline.DrainTrace)
// over a seeded tracegen corpus, serialized in format f, at each worker
// count, best of repeats (k < 1 means 3). The sweep starts from
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
		rows = appendScalingRow(rows, n, events, best)
	}
	return rows, nil
}

// appendScalingRow appends the sweep point of n workers that processed
// events in best, with its speedup over the sweep's first row.
func appendScalingRow(rows []PipelineScalingRow, n, events int, best time.Duration) []PipelineScalingRow {
	row := PipelineScalingRow{
		Workers:   n,
		Events:    events,
		Elapsed:   best,
		PerSecond: float64(events) / best.Seconds(),
		Speedup:   1,
	}
	if len(rows) > 0 {
		row.Speedup = row.PerSecond / rows[0].PerSecond
	}
	return append(rows, row)
}

// RenderScalingTable prints any scaling sweep under the given title.
func RenderScalingTable(title string, rows []PipelineScalingRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	b.WriteString("  workers   events      time    events/sec  speedup\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %7d  %7d  %8s  %12.0f  %6.2fx\n",
			r.Workers, r.Events, r.Elapsed.Round(time.Microsecond), r.PerSecond, r.Speedup)
	}
	return strings.TrimRight(b.String(), "\n")
}
