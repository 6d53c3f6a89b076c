// Command piftbench regenerates the paper's tables and figures from the
// simulated platform and prints them as text.
//
// Usage:
//
//	piftbench [-exp all|fig2|table1|fig10|fig11|headline|fig12|fig13|
//	           fig14|fig15|fig16|fig17|fig18|pipeline|server|stackvm]
//	          [-frontend dalvik|stackvm] [-scale N]
//	          [-workers 1,2,4,8] [-events 2097152] [-server-events 1048576]
//	          [-wire-format v1|v2]
//
// -scale sizes the LGRoot workload that drives the trace-statistics and
// overhead experiments (default 25; larger = longer trace, smoother
// distributions). -workers selects the worker counts the pipeline and
// server experiments sweep. -events sizes the synthetic corpus of the
// pipeline experiment's shard-owned scaling sweep, wire table and decode
// comparison (0 disables all three, leaving the parity check), and
// -server-events the corpus the server experiment uploads.
// -wire-format chooses the trace serialization the pipeline and server
// sweeps ingest — the block-compressed PIFTTRC3 by default; the pipeline
// experiment additionally reports the per-corpus v1-vs-v2 compression
// table and cross-format decode throughput. Both experiments print
// tables only; the bounds on these numbers are tests (see
// TestPerfFloors in internal/eval).
//
// -frontend selects which guest VM's benchmark suite backs the harness:
// the Dalvik-style register VM (default) or the wasm-style stack VM. Both
// front ends lower to the same event stream, so every trace-driven
// experiment runs on either; the malware corpus is Dalvik bytecode and
// appears only with the matching front end.
//
// -exp stackvm runs the second front end's dedicated accuracy experiment:
// every stack-VM app against the DIFT oracle and PIFT at NI=13/NT=3 and
// NI=∞, quantifying the flows the finite window misses (the spill/reload
// family), plus the per-frontend load→store distance comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/droidbench"
	"repro/internal/eval"
	"repro/internal/malware"
	"repro/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, fig2, table1, fig10, fig11, headline, fig12, fig13, fig14, fig15, fig16, fig17, fig18, jit, stores, cache, categories, allsamples, apps, summary, pipeline, server, stackvm)")
	feName := flag.String("frontend", "dalvik", "guest front end backing the harness suite: dalvik or stackvm")
	scale := flag.Int("scale", malware.DefaultScale, "LGRoot workload scale")
	workers := flag.String("workers", "1,2,4,8", "comma-separated worker counts for -exp pipeline and -exp server")
	events := flag.Int("events", 1<<21, "synthetic corpus size (events) for -exp pipeline's scaling sweep, wire table and decode comparison; 0 disables them")
	serverEvents := flag.Int("server-events", 1<<20, "corpus size (events) for -exp server's session-ingest scaling sweep")
	wireFormat := flag.String("wire-format", "v2", "trace wire format for the -exp pipeline and -exp server corpora: v1 (PIFTTRC1) or v2 (PIFTTRC3)")
	flag.Parse()

	format, err := trace.ParseFormat(*wireFormat)
	fatal(err)

	suite, err := droidbench.SuiteFor(*feName)
	fatal(err)
	h := eval.NewHarnessSuite(*scale, suite)
	selected := strings.Split(*exp, ",")
	run := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}

	start := time.Now()
	ok := false

	if run("table1") {
		ok = true
		rows, err := eval.Table1For(h.Frontend())
		fatal(err)
		display := h.Frontend().Name()
		if display == "dalvik" {
			display = "Dalvik"
		}
		fmt.Println(eval.RenderTable1For(display, rows))
	}
	if run("fig10") {
		ok = true
		fmt.Println(eval.Figure10(h, 30).Render())
	}
	if run("fig2") || run("fig12") || run("fig13") {
		c, err := eval.Figure2(h)
		fatal(err)
		if run("fig2") {
			ok = true
			fmt.Println(c.RenderFigure2())
		}
		if run("fig12") {
			ok = true
			fmt.Println(eval.RenderFigure12(c))
		}
		if run("fig13") {
			ok = true
			fmt.Println(eval.RenderFigure13(c))
		}
	}
	if run("fig11") {
		ok = true
		r, err := eval.Figure11(h)
		fatal(err)
		fmt.Println(r.Render())
	}
	if run("headline") {
		ok = true
		r, err := eval.Headline(h)
		fatal(err)
		fmt.Println(r.Render())
	}
	if run("summary") {
		ok = true
		rows, err := eval.Summary(h)
		fatal(err)
		fmt.Println(eval.RenderSummary(rows))
	}
	if run("apps") {
		ok = true
		fmt.Println(droidbench.RenderInventory())
	}
	if run("stackvm") {
		ok = true
		r, err := eval.StackVM(h)
		fatal(err)
		fmt.Println(r.Render())
	}
	if run("categories") {
		ok = true
		cfg := core.Config{NI: 13, NT: 3, Untaint: true}
		rows, err := eval.CategoryBreakdown(h, cfg)
		fatal(err)
		fmt.Println(eval.RenderCategoryBreakdown(rows, cfg))
	}
	if run("fig14") {
		ok = true
		g, err := eval.Figure14(h)
		fatal(err)
		fmt.Println(g.Render("Figure 14: max tainted bytes (LGRoot)", eval.Count))
	}
	if run("fig15") || run("fig16") {
		ok = true
		r, err := eval.TimeSeries(h, 40)
		fatal(err)
		fmt.Println(r.Render())
	}
	if run("fig17") {
		ok = true
		g, err := eval.Figure17(h)
		fatal(err)
		fmt.Println(g.Render("Figure 17: max distinct tainted ranges (LGRoot)", eval.Count))
	}
	if run("fig18") {
		ok = true
		rows, err := eval.UntaintEffect(h)
		fatal(err)
		fmt.Println(eval.RenderUntaintEffect(rows))
	}
	if run("allsamples") {
		ok = true
		rows, err := eval.AllSampleStats(*scale)
		fatal(err)
		fmt.Println(eval.RenderSampleStats(rows))
	}
	if run("jit") {
		ok = true
		r, err := eval.JITComparison(*scale)
		fatal(err)
		fmt.Println(r.Render())
	}
	if run("stores") {
		ok = true
		rows, err := eval.StoreAblation(h)
		fatal(err)
		fmt.Println(eval.RenderStoreAblation(rows))
	}
	if run("pipeline") {
		ok = true
		counts, err := parseWorkers(*workers)
		fatal(err)
		cfg := core.Config{NI: 13, NT: 3, Untaint: true}
		parity, err := eval.PipelineParity(h, cfg, counts)
		fatal(err)
		fmt.Println(eval.RenderPipelineParity(parity, cfg))
		if *events > 0 {
			rows, err := eval.SyntheticScaling(cfg, counts, *events, 3, format)
			fatal(err)
			fmt.Println(eval.RenderScalingTable(
				fmt.Sprintf("Shard-owned ingest scaling (synthetic corpus, %d events, %s, NumCPU=%d)",
					*events, format, runtime.NumCPU()),
				rows))
			wire, err := eval.WireCompression(h, 64, *events)
			fatal(err)
			dec, err := eval.DecodeBench(*events, 3)
			fatal(err)
			fmt.Println(eval.RenderWire(wire, dec))
		}
	}
	if run("server") {
		ok = true
		counts, err := parseWorkers(*workers)
		fatal(err)
		cfg := core.Config{NI: 13, NT: 3, Untaint: true}
		rows, err := eval.ServerBench(cfg, counts, *serverEvents, 3, format)
		fatal(err)
		fmt.Println(eval.RenderScalingTable(
			fmt.Sprintf("Server session-ingest scaling (synthetic corpus, %d events, %s, NumCPU=%d)",
				*serverEvents, format, runtime.NumCPU()),
			rows))
	}
	if run("cache") {
		ok = true
		rows, err := eval.CacheCapacity(h, []int{2, 8, 32, 128, 512, 2730})
		fatal(err)
		fmt.Println(eval.RenderCacheCapacity(rows))
	}

	if !ok {
		fmt.Fprintf(os.Stderr, "piftbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	fmt.Printf("(completed in %v)\n", time.Since(start).Round(time.Millisecond))
}

func parseWorkers(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "piftbench:", err)
		os.Exit(1)
	}
}
