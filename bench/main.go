// Command bench is PIFT's benchmark: an offline file drain and a
// multi-tenant upload service, measured end to end and layer by layer. It
// drives the program only through its public package APIs (trace,
// pipeline, core, server) and generates every input from -seed; the
// program only ever sees the encoded bytes.
//
// From the repository root, bench/run.sh builds and runs it:
//
//	bash bench/run.sh --workload drain --seed 1 --seconds 20 --trace 0
//
// With -trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
// with -trace 1 the per-layer metrics (and -spans FILE writes the recorded
// spans). The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the line before it stamps
// the machine, the seed, the revision and the op counts. Without
// -workload every workload runs, each in a fresh process. The command
// exits 1 when any op failed its check.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// sizedCPUs is the CPU count the workloads were sized for. No workload
// runs more pipeline workers or clients than this, and wall-time shares
// are given against this many CPUs.
const sizedCPUs = 2

// sizes fixes the inputs and the work of one epoch of each workload. The
// smoke test shrinks them; the benchmark always runs fullSizes.
type sizes struct {
	drainEvents int // dense PIFTTRC1 corpus
	scanEvents  int // clean PIFTTRC2 corpus

	uploadCorpora int // distinct corpora; one tenant per corpus per epoch
	uploadEvents  int // events per corpus (and per tenant)
	uploadChunk   int // events per POST

	spillCorpora int
	spillEvents  int // events per corpus; tenant t replays corpus t mod spillCorpora
	spillChunk   int // events per POST; an epoch is spillEvents/spillChunk rounds
	spillTenants int
	spillBudget  int64 // server MemoryBudget

	warmups int // untimed drains before the window
	setups  int // set-ups per run; setup_s is their median
	drains  int // 1- and 2-worker drains in the traced replay
}

// fullSizes halves two inputs from their first sizing: the drain corpus
// from 2 Mi to 1 Mi events and the scan corpus from 4 Mi to 2 Mi. At the
// first sizing a 20 s window on a slower machine would hold fewer than 100
// whole scan drains, too few for a p90 with 10 samples beyond it.
var fullSizes = sizes{
	drainEvents:   1 << 20,
	scanEvents:    2 << 20,
	uploadCorpora: 16,
	uploadEvents:  1 << 20,
	uploadChunk:   128 << 10,
	spillCorpora:  64,
	spillEvents:   96 << 10,
	spillChunk:    4 << 10,
	spillTenants:  512,
	spillBudget:   512 << 10,
	warmups:       3,
	setups:        5,
	drains:        5,
}

// bench is one set-up workload.
type bench interface {
	// start brings the workload to its measured state: servers up and
	// warm-up ops done. It is not part of setup_s.
	start() error
	// epoch runs one fixed unit of work, recording into m; parent is the
	// epoch's span.
	epoch(m *meter, parent int)
	// registry is the program's metrics registry, nil when uninstrumented.
	registry() *metrics.Registry
	// layers replays the workload's inputs through each layer's public
	// functions and fills in the per-layer metrics.
	layers(lr *layerRun) error
	close()
}

type workload struct {
	name      string
	setup     func(sz sizes, seed int64, traced bool) (bench, error)
	tail      float64 // op_tail_ms percentile: the highest with >=10 samples beyond it at fullSizes
	queryTail float64
}

// The tails are fixed per workload, not chosen per run, so that a run with
// a few more or fewer samples does not switch percentiles.
//
// BENCHMARK.json gates all but spill. Every spill upload replaces a spill
// file, and on a filesystem mounted with online discard each replacement
// waits for a disk discard whose cost grows several-fold under sustained
// load, so spill's timings do not repeat from run to run (bench/README.md).
var workloads = []workload{
	{"drain", setupDrain, 0.90, 0},
	{"scan", setupScan, 0.90, 0},
	{"upload", setupUpload, 0.95, 0.90},
	{"spill", setupSpill, 0.99, 0.99},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEnd lists the metrics BENCHMARK.json gates, in report order. The
// wall-time metrics are reported but not gated: on a shared 2-vCPU host
// their spread over a run-set reached 0.2–1.0 of the median, while process
// CPU time, which excludes the time other threads and tenants hold the
// CPUs, stayed within its bound (bench/README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s_per_mevent", "s"},
	{"wire_bytes_per_event", "B"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records what a number was measured on and how.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Revision   string  `json:"vcs_revision"`
	WindowS    float64 `json:"window_s"`
	Epochs     int     `json:"epochs"`
	Ops        int     `json:"ops"`
	Queries    int     `json:"queries"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	OpTail     string  `json:"op_tail"`
	QueryTail  string  `json:"query_tail,omitempty"`
}

func newStamp(w workload, seed int64, trace int, m *meter, win window) stamp {
	st := stamp{
		Workload: w.name, Seed: seed, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Revision: "unknown",
		WindowS:  win.wall.Seconds(), Epochs: win.epochs,
		Ops: len(m.ops), Queries: len(m.queries), Attempted: m.attempted, Failed: m.failed,
		OpTail: tailNote(w.tail, len(m.ops)),
	}
	if w.queryTail > 0 {
		st.QueryTail = tailNote(w.queryTail, len(m.queries))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Revision = s.Value
			}
		}
	}
	return st
}

func tailNote(q float64, n int) string {
	beyond := int(float64(n) * (1 - q))
	return fmt.Sprintf("p%g of %d samples, %d beyond", q*100, n, beyond)
}

// report collects named metrics for the table and the result line.
type report struct {
	names   []string
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// div is a/b, or 0 when b is 0, so an empty run never prints NaN.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupMedian sets the workload up sz.setups times, timing each set-up,
// then starts the last one. It returns the started workload and the
// median set-up time.
func setupMedian(w workload, sz sizes, seed int64, traced bool) (bench, float64, error) {
	var times []float64
	var b bench
	for len(times) < max(1, sz.setups) {
		b = nil // the previous set-up's inputs are garbage before the next is timed
		runtime.GC()
		t0 := time.Now()
		nb, err := w.setup(sz, seed, traced)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		b = nb
	}
	if err := b.start(); err != nil {
		b.close()
		return nil, 0, err
	}
	return b, medianFloat(times), nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, sz sizes, seed int64, secs float64) (*report, stamp, *meter, error) {
	b, setupS, err := setupMedian(w, sz, seed, false)
	if err != nil {
		return nil, stamp{}, nil, err
	}
	defer b.close()
	m := &meter{}
	win := measure(b, secs, m)
	ev := float64(m.events)
	r := &report{}
	r.add("setup_s", setupS, "s")
	r.add("events_per_s", div(ev, win.wall.Seconds()), "1/s")
	r.add("op_p50_ms", ms(percentile(m.ops, 0.5)), "ms")
	r.add("op_tail_ms", ms(percentile(m.ops, w.tail)), "ms")
	r.add("cpu_s_per_mevent", div(win.cpu.Seconds(), ev/1e6), "s")
	r.add("wire_bytes_per_event", div(float64(m.wire), ev), "B")
	// Reported in the table only, with the wall-time metrics above. Of the
	// gated workloads only upload has queries. The live heap is fixed by
	// the seed's input, and its spread across seeds on scan exceeds the
	// 10% a memory metric may move; the error rate is the result line's
	// failed/attempted.
	r.add("live_heap_mb", win.liveHeap/(1<<20), "MB")
	if w.queryTail > 0 {
		r.add("query_p50_ms", ms(percentile(m.queries, 0.5)), "ms")
		r.add("query_tail_ms", ms(percentile(m.queries, w.queryTail)), "ms")
	}
	r.add("error_rate", div(float64(m.failed), float64(m.attempted)), "ratio")
	return r, newStamp(w, seed, 0, m, win), m, nil
}

func main() {
	name := flag.String("workload", "", "drain, scan, upload or spill; empty runs each in its own process")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	secs := flag.Float64("seconds", 20, "measured window; the epoch in progress always finishes")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	flag.Parse()

	if *name == "" {
		os.Exit(runAll(*seed, *secs, *trace, *spans))
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q or -trace %d\n", *name, *trace)
		os.Exit(2)
	}

	var (
		r   *report
		st  stamp
		m   *meter
		err error
	)
	if *trace == 0 {
		r, st, m, err = runUntraced(w, fullSizes, *seed, *secs)
	} else {
		base := untracedBaseline(w, *seed, *secs)
		r, st, m, err = runTraced(w, fullSizes, *seed, *secs, base, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, f := range m.failures {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	keep := endToEnd
	if *trace == 1 {
		keep = perLayer
	}
	if err := printResult(os.Stdout, r, st, m, keep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if m.failed > 0 {
		os.Exit(1)
	}
}

// printResult prints the table, the stamp line and, last, the result line
// holding the metrics named in keep.
func printResult(out io.Writer, r *report, st stamp, m *meter, keep []struct{ name, unit string }) error {
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "%-34s %18s  %s\n", "metric", "value", "unit")
	for _, n := range r.names {
		mt := r.metrics[n]
		fmt.Fprintf(bw, "%-34s %18.6g  %s\n", n, mt.Value, mt.Unit)
	}
	sj, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "stamp %s\n", sj)
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	for _, k := range keep {
		mt, ok := r.metrics[k.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", k.name)
		}
		res.Metrics[k.name] = mt
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", rj)
	return bw.Flush()
}

// untracedBaseline runs the workload untraced in a fresh child process and
// returns its events_per_s, the base the tracing overhead is given
// against; 0 when the child printed none. The metric is not gated, so it
// is read from the child's table, not from its result line.
func untracedBaseline(w workload, seed int64, secs float64) float64 {
	cmd := exec.Command(os.Args[0], "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, _ := cmd.Output() // a failed op exits 1 but still prints its table
	v, ok := tableValue(out, "events_per_s")
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: untraced baseline: no events_per_s in the child's output")
	}
	return v
}

// tableValue reads one metric's value from the table printResult prints.
func tableValue(out []byte, name string) (float64, bool) {
	for _, line := range bytes.Split(out, []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) == 3 && string(f[0]) == name {
			v, err := strconv.ParseFloat(string(f[1]), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// runAll runs every workload in its own child process and passes their
// output through.
func runAll(seed int64, secs float64, trace int, spans string) int {
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if spans != "" {
			args = append(args, "-spans", filepath.Join(filepath.Dir(spans), w.name+"-"+filepath.Base(spans)))
		}
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
