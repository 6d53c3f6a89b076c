package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/droidbench"
	"repro/internal/frontend"
	"repro/internal/pipeline"
)

// runApp executes prog on a fresh machine whose one event sink is sink.
func runApp(t *testing.T, prog frontend.Program, sink cpu.EventSink) {
	t.Helper()
	if _, err := android.Run(prog, android.RunOptions{Sinks: []cpu.EventSink{sink}, Mode: frontend.ModeInterp}); err != nil {
		t.Fatal(err)
	}
}

// resultKey renders what piftrun reports of a run: Stats and the
// verdicts in canonical order.
func resultKey(st core.Stats, vs []core.SinkVerdict) string {
	vs = append([]core.SinkVerdict(nil), vs...)
	core.SortVerdicts(vs)
	return fmt.Sprintf("%#v|%#v", st, vs)
}

// TestCheckpointResume runs a DroidBench app through a checkpointer that
// writes a checkpoint file every 16 events, then resumes from those files
// as -resume does: restorePipeline picks the newest, and after the later
// files are deleted, an older one. Each resumed run re-executes the app
// behind a checkpointer that skips the Offset() events the checkpoint
// covers. Its Stats and sorted verdicts must equal the uninterrupted
// synchronous tracker's, and every checkpoint it writes must equal the
// first run's file of the same name byte for byte.
func TestCheckpointResume(t *testing.T) {
	const every = 16
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	opts := pipeline.Options{Workers: 2, Config: cfg}
	var prog frontend.Program
	for _, a := range droidbench.Suite() {
		if a.Name == "DirectImeiSms" {
			prog = a.Prog
		}
	}
	if prog == nil {
		t.Fatal("DirectImeiSms not in the suite")
	}

	oracle := core.NewTracker(cfg, nil)
	runApp(t, prog, oracle)
	want := resultKey(oracle.Stats(), oracle.Verdicts())

	// run drives the app through a checkpointer over p into dir and
	// returns what piftrun would print, plus the files it wrote.
	run := func(p *pipeline.Pipeline, dir string) (string, map[string][]byte) {
		c := &checkpointer{pipe: p, dir: dir, every: every, skip: p.Offset()}
		runApp(t, prog, c)
		if c.err != nil {
			t.Fatal(c.err)
		}
		res := p.Close()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pift"))
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(name)] = b
		}
		return resultKey(res.Stats, res.Verdicts), files
	}

	dir := t.TempDir()
	got, written := run(pipeline.New(opts), dir)
	if got != want {
		t.Fatalf("uninterrupted pipeline run diverges from the tracker\n got %s\nwant %s", got, want)
	}
	if len(written) < 4 {
		t.Fatalf("%d checkpoint files written, want several", len(written))
	}

	resume := func(wantPath string) {
		t.Helper()
		p, path, err := restorePipeline(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(path) != wantPath {
			t.Fatalf("restored %s, want %s", path, wantPath)
		}
		got, rewritten := run(p, t.TempDir())
		if got != want {
			t.Fatalf("resumed from %s: result diverges\n got %s\nwant %s", wantPath, got, want)
		}
		later := 0
		for name := range written {
			if name > wantPath {
				later++
			}
		}
		if len(rewritten) != later {
			t.Fatalf("resumed from %s: %d checkpoints written, want the %d after it", wantPath, len(rewritten), later)
		}
		for name, b := range rewritten {
			if string(b) != string(written[name]) {
				t.Fatalf("resumed from %s: checkpoint %s differs from the uninterrupted run's", wantPath, name)
			}
		}
	}
	newest, err := latestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	resume(filepath.Base(newest))

	older := fmt.Sprintf("ckpt-%016d.pift", 2*every)
	for name := range written {
		if name > older {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	resume(older)
}
