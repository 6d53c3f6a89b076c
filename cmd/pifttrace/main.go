// Command pifttrace records an application's front-end event stream and
// prints its memory-operation statistics (the paper's Figure 2, 12, and 13
// analyses for an arbitrary app).
//
// Usage:
//
//	pifttrace -app LGRoot [-frontend dalvik|stackvm] [-scale 25] [-disasm N]
//	pifttrace -load trace.pift                       analyze a saved trace (either wire format)
//	pifttrace -transcode -load in.pift -save out.pift [-wire-format v1|v2]
//
// -save serializes in the format chosen by -wire-format (the
// block-compressed PIFTTRC3 by default); -load and -transcode sniff the
// input's magic, so both PIFTTRC1 and PIFTTRC3 files are accepted
// everywhere a trace file is read. A file of the earlier compressed
// format, PIFTTRC2, is refused as a bad magic: transcode it to v1 with a
// build that still reads it.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/android"
	"repro/internal/cpu"
	"repro/internal/droidbench"
	"repro/internal/eval"
	"repro/internal/frontend"
	"repro/internal/malware"
	"repro/internal/trace"
	"repro/internal/tracestat"
)

func main() {
	app := flag.String("app", "LGRoot", "application or malware sample name")
	feName := flag.String("frontend", "dalvik", "guest front end: dalvik or stackvm")
	scale := flag.Int("scale", malware.DefaultScale, "LGRoot workload scale")
	disasm := flag.Uint64("disasm", 0, "print the first N retired instructions as a gem5-style listing")
	save := flag.String("save", "", "write the recorded event trace to this file")
	load := flag.String("load", "", "analyze a previously saved trace instead of executing an app")
	transcode := flag.Bool("transcode", false, "convert the -load trace to -wire-format and write it to -save, skipping analysis")
	wireFormat := flag.String("wire-format", "v2", "wire format for -save and -transcode output: v1 (PIFTTRC1) or v2 (PIFTTRC3)")
	flag.Parse()

	format, err := trace.ParseFormat(*wireFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifttrace:", err)
		os.Exit(2)
	}

	if *transcode {
		if *load == "" || *save == "" {
			fmt.Fprintln(os.Stderr, "pifttrace: -transcode needs both -load and -save")
			os.Exit(2)
		}
		n, err := transcodeFile(*load, *save, format)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pifttrace:", err)
			os.Exit(1)
		}
		fmt.Printf("transcoded %d events from %s to %s (%s)\n", n, *load, *save, format)
		return
	}

	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pifttrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		rec, err := trace.ReadFrom(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pifttrace:", err)
			os.Exit(1)
		}
		analyze(*load, rec)
		return
	}

	suite, err := droidbench.SuiteFor(*feName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifttrace:", err)
		os.Exit(2)
	}
	var prog frontend.Program
	if *app == "LGRoot" && suite.Frontend().Name() == "dalvik" {
		prog = malware.LGRoot(*scale)
	} else {
		for _, a := range suite.Apps() {
			if a.Name == *app {
				prog = a.Prog
			}
		}
		if suite.Frontend().Name() == "dalvik" {
			for _, s := range malware.Samples() {
				if s.Name == *app {
					prog = s.Prog
				}
			}
		}
	}
	if prog == nil {
		fmt.Fprintf(os.Stderr, "pifttrace: unknown app %q\n", *app)
		os.Exit(2)
	}

	if *disasm > 0 {
		tracer := cpu.NewTracer(os.Stdout, *disasm)
		if _, err := android.Run(prog, android.RunOptions{
			Hooks: []cpu.InstrHook{tracer},
		}); err != nil {
			fmt.Fprintln(os.Stderr, "pifttrace:", err)
			os.Exit(1)
		}
		fmt.Println()
	}

	rec, err := eval.Record(prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifttrace:", err)
		os.Exit(1)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pifttrace:", err)
			os.Exit(1)
		}
		if _, err := rec.WriteToFormat(f, format); err != nil {
			fmt.Fprintln(os.Stderr, "pifttrace:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "pifttrace:", err)
			os.Exit(1)
		}
		fmt.Printf("saved %d events to %s (%s)\n", rec.Len(), *save, format)
	}
	analyze(*app, rec)
}

// transcodeFile streams src into dst re-serialized in format f, without
// materializing the whole trace; the source format is sniffed.
func transcodeFile(src, dst string, f trace.Format) (uint64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := trace.Transcode(out, in, f)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
		return 0, err
	}
	return n, nil
}

// analyze prints the memory-operation statistics of one trace.
func analyze(label string, rec *trace.Recorder) {
	c := tracestat.NewCollector()
	rec.Replay(c)
	c.Finish()

	sum := rec.Summarize()
	fmt.Printf("%s: %d events (%d loads, %d stores, %d sources, %d sinks), %d instructions\n\n",
		label, rec.Len(), sum.Loads, sum.Stores, sum.Sources, sum.Sinks, sum.LastSeq)
	fmt.Println(c.RenderFigure2())
	fmt.Println(eval.RenderFigure12(c))
	fmt.Println(eval.RenderFigure13(c))
}
