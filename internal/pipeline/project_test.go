package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// drainBoth drains raw through DrainTrace twice under opts: as is, which
// reads quiet processes' events without their ranges, and with a no-op
// Observer, which forces full decode. It returns both Results and the
// checkpoint bytes each run wrote, concatenated.
func drainBoth(t *testing.T, raw []byte, opts pipeline.Options) (projected, full pipeline.Result, projCkpt, fullCkpt []byte) {
	t.Helper()
	run := func(obs func(int, cpu.Event)) (pipeline.Result, []byte) {
		var ckpt bytes.Buffer
		o := opts
		o.Observer = obs
		if o.CheckpointEvery > 0 {
			o.OnCheckpoint = func(p *pipeline.Pipeline) error {
				_, err := p.WriteCheckpoint(&ckpt)
				return err
			}
		}
		res, err := pipeline.New(o).DrainTrace(context.Background(), bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return res, ckpt.Bytes()
	}
	projected, projCkpt = run(nil)
	full, fullCkpt = run(func(int, cpu.Event) {})
	return projected, full, projCkpt, fullCkpt
}

// TestDrainTraceProjectedMatchesFull: a DrainTrace worker reads the
// events of a process its tracker reports quiet without their ranges,
// and the Result must not show it. Over tracegen PIFTTRC2 corpora with no
// sources, the default density and a dense one, at 1, 8 and 64 PIDs,
// drained at 1, 2 and 4 workers, without checkpoints and with phases
// that cut blocks, Stats, verdicts, Faults and every checkpoint's bytes
// equal those of the same drain with a no-op Observer, which turns
// projection off.
func TestDrainTraceProjectedMatchesFull(t *testing.T) {
	for _, every := range []int{1 << 30, 0, 256} {
		for _, pids := range []int{1, 8, 64} {
			rec := tracegen.Generate(tracegen.Spec{Seed: int64(90 + pids), Events: 30_000, PIDs: pids, SourceEvery: every})
			var buf bytes.Buffer
			if _, err := rec.WriteToFormat(&buf, trace.FormatV2); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, ckpt := range []uint64{0, 5000} {
					name := fmt.Sprintf("sourceEvery=%d/pids=%d/workers=%d/ckpt=%d", every, pids, workers, ckpt)
					opts := pipeline.Options{Workers: workers, Config: testCfg, CheckpointEvery: ckpt}
					projected, full, projCkpt, fullCkpt := drainBoth(t, buf.Bytes(), opts)
					if projected.Stats != full.Stats {
						t.Fatalf("%s: stats\nprojected %+v\nfull      %+v", name, projected.Stats, full.Stats)
					}
					if !reflect.DeepEqual(projected.Verdicts, full.Verdicts) {
						t.Fatalf("%s: verdicts differ", name)
					}
					if got, want := faultReport(projected), faultReport(full); got != want {
						t.Fatalf("%s: faults\nprojected %s\nfull      %s", name, got, want)
					}
					if !bytes.Equal(projCkpt, fullCkpt) {
						t.Fatalf("%s: checkpoint bytes differ", name)
					}
					if ckpt > 0 && len(projCkpt) == 0 {
						t.Fatalf("%s: no checkpoint written", name)
					}
				}
			}
		}
	}
}

// TestDrainTraceSourceMidBlock: a process quiet at the start of a block
// registers a source in the middle of it, then loads from the source,
// stores what it loaded and checks a sink over the store, which must be
// tainted. Its events before the registration could be read without
// ranges, but the registration's own range, and every range after it,
// is what Algorithm 1 reads, so the worker keeps the process whole for
// the block. Other processes' events interleave with its own, so its
// events fall in several runs of the block.
func TestDrainTraceSourceMidBlock(t *testing.T) {
	const victim = 5
	var evs []cpu.Event
	seq := map[uint32]uint64{}
	add := func(kind cpu.EventKind, pid uint32, r mem.Range, tag int) {
		seq[pid] += 2
		evs = append(evs, cpu.Event{Kind: kind, PID: pid, Seq: seq[pid], Range: r, Tag: tag})
	}
	quietRun := func(pid uint32, n int) {
		for i := range n {
			add(cpu.EventKind(i%2), pid, mem.MakeRange(mem.Addr(0x1000+64*i), 4), 0)
		}
		add(cpu.EvSinkCheck, pid, mem.MakeRange(0x1000, 8), int(pid))
	}
	for pid := uint32(1); pid <= 8; pid++ {
		quietRun(pid, 40)
	}
	quietRun(victim, 40)
	add(cpu.EvSourceRegister, victim, mem.MakeRange(0x9000, 16), 0)
	quietRun(3, 40)
	add(cpu.EvLoad, victim, mem.MakeRange(0x9004, 4), 0)
	add(cpu.EvStore, victim, mem.MakeRange(0x5000, 4), 0)
	add(cpu.EvSinkCheck, victim, mem.MakeRange(0x5000, 4), 99)
	for pid := uint32(1); pid <= 8; pid++ {
		quietRun(pid, 40)
	}
	if len(evs) > trace.DefaultBlockEvents {
		t.Fatalf("%d events do not fit one block", len(evs))
	}

	oracle := core.NewTracker(testCfg, nil)
	for _, ev := range evs {
		oracle.Event(ev)
	}
	wantVerdicts := append([]core.SinkVerdict(nil), oracle.Verdicts()...)
	core.SortVerdicts(wantVerdicts)
	tainted := 0
	for _, v := range wantVerdicts {
		if v.Tainted {
			tainted++
			if v.Tag != 99 {
				t.Fatalf("sink %d is tainted too", v.Tag)
			}
		}
	}
	if tainted != 1 {
		t.Fatalf("%d tainted sinks in the oracle, want the one at tag 99", tainted)
	}

	var buf bytes.Buffer
	if _, err := (&trace.Recorder{Events: evs}).WriteToFormat(&buf, trace.FormatV2); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		projected, full, _, _ := drainBoth(t, buf.Bytes(), pipeline.Options{Workers: workers, Config: testCfg})
		if len(projected.Faults) > 0 {
			t.Fatalf("workers=%d: %s", workers, faultReport(projected))
		}
		if projected.Stats != full.Stats || projected.Stats != oracle.Stats() {
			t.Fatalf("workers=%d: stats\nprojected %+v\nfull      %+v\noracle    %+v", workers, projected.Stats, full.Stats, oracle.Stats())
		}
		if !reflect.DeepEqual(projected.Verdicts, wantVerdicts) || !reflect.DeepEqual(full.Verdicts, wantVerdicts) {
			t.Fatalf("workers=%d: verdicts differ from the oracle's", workers)
		}
	}
}
