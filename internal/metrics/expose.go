package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file renders a registry in the two formats the stack consumes:
// Prometheus text exposition (scraped from piftrun's /metrics endpoint)
// and JSON (served at /metrics.json, and read by the benchmark's traced
// mode).
// Both render entries in sorted-name order, so output is deterministic
// for a quiescent registry.

// escapeHelp escapes a HELP string per the Prometheus text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects (+Inf/-Inf/NaN
// spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, entries sorted by (family, labels). Labeled samples of one
// family share a single HELP/TYPE header, per the format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	prevFamily := ""
	for i, e := range r.sorted() {
		if i == 0 || e.family != prevFamily {
			prevFamily = e.family
			bw.WriteString("# HELP ")
			bw.WriteString(e.family)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(e.help))
			bw.WriteByte('\n')
			bw.WriteString("# TYPE ")
			bw.WriteString(e.family)
			bw.WriteByte(' ')
			bw.WriteString(kindSuffix(e.kind))
			bw.WriteByte('\n')
		}
		switch e.kind {
		case kindCounter:
			bw.WriteString(e.name)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatUint(e.c.Value(), 10))
			bw.WriteByte('\n')
		case kindGauge:
			bw.WriteString(e.name)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(e.g.Value(), 10))
			bw.WriteByte('\n')
		case kindHistogram:
			if e.h == nil {
				continue
			}
			cum, sum, count := e.h.snapshot()
			for i, c := range cum {
				le := "+Inf"
				if i < len(e.h.bounds) {
					le = formatFloat(e.h.bounds[i])
				}
				bw.WriteString(e.name)
				bw.WriteString(`_bucket{le="`)
				bw.WriteString(le)
				bw.WriteString(`"} `)
				bw.WriteString(strconv.FormatUint(c, 10))
				bw.WriteByte('\n')
			}
			bw.WriteString(e.name)
			bw.WriteString("_sum ")
			bw.WriteString(formatFloat(sum))
			bw.WriteByte('\n')
			bw.WriteString(e.name)
			bw.WriteString("_count ")
			bw.WriteString(strconv.FormatUint(count, 10))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// HistogramSnapshot is the JSON shape of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"` // upper bounds; +Inf bucket implied
	Counts []uint64  `json:"counts"` // cumulative, len(Bounds)+1
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot captures every metric's current value into plain maps, the
// shape /metrics.json serves. Map keys marshal in sorted order, so the
// JSON is deterministic for a quiescent registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot reads the whole registry. Writers are not stopped; each value
// is an atomic read.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, e := range r.sorted() {
		switch e.kind {
		case kindCounter:
			s.Counters[e.name] = e.c.Value()
		case kindGauge:
			s.Gauges[e.name] = e.g.Value()
		case kindHistogram:
			if e.h == nil {
				continue
			}
			cum, sum, count := e.h.snapshot()
			if math.IsInf(sum, 0) || math.IsNaN(sum) {
				sum = 0 // JSON has no Inf/NaN literal; zero an impossible sum
			}
			s.Histograms[e.name] = HistogramSnapshot{
				Bounds: append([]float64(nil), e.h.bounds...),
				Counts: cum,
				Sum:    sum,
				Count:  count,
			}
		}
	}
	return s
}

// WriteJSON renders the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
