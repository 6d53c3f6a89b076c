package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
)

// smokeSizes runs every workload at about 1/1000 of the benchmark's work.
var smokeSizes = sizes{
	drainEvents:   4 << 10,
	scanEvents:    4 << 10,
	uploadCorpora: 2,
	uploadEvents:  4 << 10,
	uploadChunk:   1 << 10,
	spillCorpora:  2,
	spillEvents:   8 << 10,
	spillChunk:    1 << 10,
	spillTenants:  8,
	spillBudget:   8 << 10,
	warmups:       1,
	setups:        1,
	drains:        1,
}

// TestEncodeV1Golden pins the benchmark's PIFTTRC1 encoder to the bytes
// Recorder.WriteToFormat(trace.FormatV1) wrote for the same events when
// the encoder was added.
func TestEncodeV1Golden(t *testing.T) {
	evs := []cpu.Event{
		{Kind: cpu.EvLoad, PID: 1, Seq: 1, Range: mem.Range{Start: 0x1000, End: 0x1003}},
		{Kind: cpu.EvStore, PID: 0xdeadbeef, Seq: 1<<40 + 7, Range: mem.Range{Start: 0xfffffff0, End: 0xffffffff}},
		{Kind: cpu.EvSourceRegister, PID: 2, Seq: 9, Range: mem.Range{Start: 16, End: 31}},
		{Kind: cpu.EvSinkCheck, PID: 2, Seq: 10, Range: mem.Range{Start: 16, End: 16}, Tag: -3},
	}
	const golden = "5049465454524331040000000000000000010000000100000000000000001000" +
		"00031000000000000001efbeadde0700000000010000f0ffffffffffffff0000" +
		"000002020000000900000000000000100000001f000000000000000302000000" +
		"0a000000000000001000000010000000fdffffff"
	if got := hex.EncodeToString(encodeV1(evs)); got != golden {
		t.Fatalf("encodeV1 =\n%s\nwant\n%s", got, golden)
	}

	corpus := genCorpus(7, 5000, 8, 256, false)
	rec, err := trace.ReadFrom(bytes.NewReader(encodeV1(corpus)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != len(corpus) {
		t.Fatalf("read %d events back, wrote %d", len(rec.Events), len(corpus))
	}
	for i := range corpus {
		if rec.Events[i] != corpus[i] {
			t.Fatalf("event %d reads back as %+v, wrote %+v", i, rec.Events[i], corpus[i])
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) == 0 || len(bj.EndToEnd) == 0 || len(bj.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %+v", bj)
	}
	return bj
}

// lastLine prints a run the way main does and decodes its result line.
func lastLine(t *testing.T, r *report, st stamp, m *meter, keep []struct{ name, unit string }) map[string]any {
	t.Helper()
	var out bytes.Buffer
	if err := printResult(&out, r, st, m, keep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.HasPrefix(lines[len(lines)-2], "stamp {") {
		t.Errorf("line before the result is %q, want the stamp", lines[len(lines)-2])
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result line has keys %v", res)
	}
	return res
}

// checkMetrics asserts the result line holds every listed metric with
// its unit, and nothing else.
func checkMetrics(t *testing.T, res map[string]any, want []struct{ Name, Unit string }) {
	t.Helper()
	got := res["metrics"].(map[string]any)
	if len(got) != len(want) {
		t.Errorf("%d metrics in the result, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name].(map[string]any)
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m["unit"] != w.Unit {
			t.Errorf("metric %s has unit %v, BENCHMARK.json says %s", w.Name, m["unit"], w.Unit)
		}
	}
}

// TestTableValue checks that the traced run's baseline can read a metric
// that is only in the table, not in the result line.
func TestTableValue(t *testing.T) {
	r := &report{}
	r.add("events_per_s", 12345678.9, "1/s")
	r.add("cpu_s_per_mevent", 0.1, "s")
	var out bytes.Buffer
	keep := []struct{ name, unit string }{{"cpu_s_per_mevent", "s"}}
	if err := printResult(&out, r, stamp{}, &meter{}, keep); err != nil {
		t.Fatal(err)
	}
	v, ok := tableValue(out.Bytes(), "events_per_s")
	if !ok || v < 12345600 || v > 12345700 {
		t.Fatalf("tableValue = %v, %v; want 1.23457e+07", v, ok)
	}
	if _, ok := tableValue(out.Bytes(), "op_p50_ms"); ok {
		t.Fatal("tableValue found a metric the table does not hold")
	}
}

func TestWorkloadsKnown(t *testing.T) {
	for _, wj := range loadBenchmarkJSON(t).Workloads {
		if _, ok := findWorkload(wj.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", wj.Name)
		}
	}
}

func TestEndToEndMetrics(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, st, m, err := runUntraced(w, smokeSizes, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || m.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", m.failed, m.attempted, m.failures)
			}
			if r.metrics["error_rate"].Value != 0 {
				t.Fatalf("error_rate %v", r.metrics["error_rate"].Value)
			}
			res := lastLine(t, r, st, m, endToEnd)
			if res["correct"] != true {
				t.Errorf("result not correct: %v", res)
			}
			checkMetrics(t, res, bj.EndToEnd)
		})
	}
}

// corruptOracle flips one oracle verdict of the first corpus.
func corruptOracle(t *testing.T, b bench) {
	t.Helper()
	switch b := b.(type) {
	case *drainBench:
		b.want.verdicts[0].Tainted = !b.want.verdicts[0].Tainted
	case *uploadBench:
		b.want[0].verdicts[0].Tainted = !b.want[0].verdicts[0].Tainted
	case *spillBench:
		// The verdict recurs in every prefix from the chunk that emits it.
		for _, pre := range b.prefix[0] {
			if len(pre) > 0 {
				pre[0].Tainted = !pre[0].Tainted
			}
		}
	default:
		t.Fatalf("no oracle to corrupt in %T", b)
	}
}

// TestCheckIsLive proves the oracle check can fail: a corrupted oracle
// verdict must show up as failed ops.
func TestCheckIsLive(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, err := w.setup(smokeSizes, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if err := b.start(); err != nil {
				t.Fatal(err)
			}
			corruptOracle(t, b)
			m := &meter{}
			measure(b, 0, m)
			if m.failed == 0 {
				t.Fatalf("a corrupted oracle verdict failed none of %d ops", m.attempted)
			}
		})
	}
}

func TestPerLayerMetrics(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			r, st, m, err := runTraced(w, smokeSizes, 1, 0, 0, spans)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 {
				t.Fatalf("%d ops failed: %v", m.failed, m.failures)
			}
			checkMetrics(t, lastLine(t, r, st, m, perLayer), bj.PerLayer)

			b, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var sf struct {
				Stamp stamp
				Spans []span
			}
			if err := json.Unmarshal(b, &sf); err != nil {
				t.Fatal(err)
			}
			if sf.Stamp.Workload != w.name || len(sf.Spans) == 0 {
				t.Fatalf("spans file: stamp %+v, %d spans", sf.Stamp, len(sf.Spans))
			}
			for _, s := range sf.Spans {
				if s.EndNs < s.StartNs || s.Workload != w.name {
					t.Fatalf("bad span %+v", s)
				}
			}
		})
	}
}
