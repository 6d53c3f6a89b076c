package eval

// Wire-format experiments: how many bytes an event costs on the wire in
// each trace format, and what decoding it back costs in time. The
// compression table is quoted per corpus — DroidBench apps compress
// differently from synthetic multi-process interleaves because PID
// locality and range reuse drive the delta and dictionary columns — and
// the average bytes/event over all corpora is the number
// TestWireCompression bounds.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// WireRow compares one corpus's serialized size across formats.
type WireRow struct {
	Corpus  string
	Events  int
	V1Bytes int
	V2Bytes int
	// BytesPerEvent is the v2 wire cost per event, header included.
	BytesPerEvent float64
	// Ratio is V1Bytes/V2Bytes — how many times smaller v2 is.
	Ratio float64
}

// wireRow encodes one corpus both ways and verifies the v2 bytes decode
// back to the exact event sequence before quoting a size on them.
func wireRow(name string, rec *trace.Recorder) (WireRow, error) {
	var v1, v2 bytes.Buffer
	if _, err := rec.WriteToFormat(&v1, trace.FormatV1); err != nil {
		return WireRow{}, err
	}
	if _, err := rec.WriteToFormat(&v2, trace.FormatV2); err != nil {
		return WireRow{}, err
	}
	back, err := trace.ReadFrom(bytes.NewReader(v2.Bytes()))
	if err != nil {
		return WireRow{}, fmt.Errorf("eval: %s: v2 re-decode: %w", name, err)
	}
	if len(back.Events) != rec.Len() {
		return WireRow{}, fmt.Errorf("eval: %s: v2 re-decode dropped events", name)
	}
	for i := range back.Events {
		if back.Events[i] != rec.Events[i] {
			return WireRow{}, fmt.Errorf("eval: %s: v2 re-decode changed event %d", name, i)
		}
	}
	return WireRow{
		Corpus:        name,
		Events:        rec.Len(),
		V1Bytes:       v1.Len(),
		V2Bytes:       v2.Len(),
		BytesPerEvent: float64(v2.Len()) / float64(rec.Len()),
		Ratio:         float64(v1.Len()) / float64(v2.Len()),
	}, nil
}

// WireCompression measures both wire formats over the paper's corpora:
// every DroidBench app, the multi-process suite interleave, and — when
// syntheticEvents > 0 — single- and multi-process tracegen corpora of
// that size.
func WireCompression(h *Harness, quantum, syntheticEvents int) ([]WireRow, error) {
	var rows []WireRow
	for _, app := range h.Apps() {
		rec, err := h.AppTrace(app)
		if err != nil {
			return nil, err
		}
		row, err := wireRow("droidbench/"+app.Name, rec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	suite, err := h.SuiteWorkload(quantum)
	if err != nil {
		return nil, err
	}
	row, err := wireRow("suite-interleave", suite)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	if syntheticEvents > 0 {
		for _, spec := range []struct {
			name string
			spec tracegen.Spec
		}{
			{"synthetic", tracegen.Spec{Seed: 1, Events: syntheticEvents}},
			{"synthetic-multiproc", tracegen.Spec{Seed: 1, Events: syntheticEvents, PIDs: 16}},
		} {
			row, err := wireRow(spec.name, tracegen.Generate(spec.spec))
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// AverageBytesPerEvent is the event-weighted v2 wire cost across rows —
// the single number TestWireCompression bounds.
func AverageBytesPerEvent(rows []WireRow) float64 {
	var events, v2 int
	for _, r := range rows {
		events += r.Events
		v2 += r.V2Bytes
	}
	if events == 0 {
		return 0
	}
	return float64(v2) / float64(events)
}

// DecodeBenchResult compares full-drain decode throughput of the two
// formats over the same event sequence. Ratio is V2PerSec/V1PerSec;
// TestPerfFloors/decode floors it, so the compressed format cannot buy
// its bytes with decode time.
type DecodeBenchResult struct {
	Events   int
	V1PerSec float64
	V2PerSec float64
	Ratio    float64
}

// DecodeBench times NextBatch drains of one seeded multi-process corpus
// serialized in each format, best of repeats, and verifies every drain
// delivers the full declared count.
func DecodeBench(events, repeats int) (*DecodeBenchResult, error) {
	if repeats < 1 {
		repeats = 3
	}
	rec := tracegen.Generate(tracegen.Spec{Seed: 1, Events: events, PIDs: 8})
	drain := func(raw []byte) (time.Duration, error) {
		start := time.Now()
		r, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			return 0, err
		}
		dst := make([]cpu.Event, 1024)
		var n uint64
		for {
			k, err := r.NextBatch(dst)
			n += uint64(k)
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
		}
		if n != uint64(events) {
			return 0, fmt.Errorf("eval: decode bench drained %d of %d events", n, events)
		}
		return time.Since(start), nil
	}
	best := map[trace.Format]time.Duration{}
	for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		var buf bytes.Buffer
		if _, err := rec.WriteToFormat(&buf, f); err != nil {
			return nil, err
		}
		for k := 0; k < repeats; k++ {
			elapsed, err := drain(buf.Bytes())
			if err != nil {
				return nil, err
			}
			if best[f] == 0 || elapsed < best[f] {
				best[f] = elapsed
			}
		}
	}
	res := &DecodeBenchResult{
		Events:   events,
		V1PerSec: float64(events) / best[trace.FormatV1].Seconds(),
		V2PerSec: float64(events) / best[trace.FormatV2].Seconds(),
	}
	res.Ratio = res.V2PerSec / res.V1PerSec
	return res, nil
}

// RenderWire prints the compression table and, when dec is non-nil, the
// decode-throughput comparison under it.
func RenderWire(rows []WireRow, dec *DecodeBenchResult) string {
	var b strings.Builder
	b.WriteString("Wire formats (PIFTTRC1 fixed records vs PIFTTRC3 compressed blocks)\n")
	b.WriteString("  corpus                        events   v1 bytes   v2 bytes   B/event   ratio\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %7d  %9d  %9d  %8.2f  %5.2fx\n",
			r.Corpus, r.Events, r.V1Bytes, r.V2Bytes, r.BytesPerEvent, r.Ratio)
	}
	fmt.Fprintf(&b, "  average v2 bytes/event: %.2f\n", AverageBytesPerEvent(rows))
	if dec != nil {
		fmt.Fprintf(&b, "  decode throughput (%d events): v1 %.0f ev/s, v2 %.0f ev/s (%.2fx)",
			dec.Events, dec.V1PerSec, dec.V2PerSec, dec.Ratio)
	}
	return strings.TrimRight(b.String(), "\n")
}
