package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// drainBoth drains raw through DrainTrace twice under opts: as is, which
// reads quiet processes' events without their ranges, and with a no-op
// Observer, which forces full decode. It returns both Results and the
// checkpoint bytes each run wrote, concatenated. Either run failing
// fails the test.
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
// and the Result must not show it. Over tracegen PIFTTRC3 corpora with no
// sources, the default density and a dense one, at 1, 8 and 64 PIDs,
// drained at 1, 2 and 4 workers, without checkpoints and with phases
// that cut blocks, both drains succeed, and Stats, verdicts and every
// checkpoint's bytes equal those of the same drain with a no-op Observer, which turns
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

// FuzzDrainTraceProjected drains a tracegen PIFTTRC3 trace of the
// fuzzer's shape twice, as is and with a no-op Observer, which turns
// projection off, and requires both to succeed with the same Stats,
// verdicts and checkpoint bytes. Small quanta and dense sinks reach block layouts the
// fixed matrix of TestDrainTraceProjectedMatchesFull does not: many short
// runs of a PID per block, several sink checks in one counted run, and a
// source registration after a counted run of the same PID.
func FuzzDrainTraceProjected(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint16(1<<15), uint16(40), uint8(2), uint16(0))
	f.Add(int64(2), uint8(3), uint8(1), uint16(300), uint16(7), uint8(1), uint16(600))
	f.Add(int64(3), uint8(64), uint8(64), uint16(255), uint16(511), uint8(3), uint16(5000))
	f.Add(int64(4), uint8(2), uint8(5), uint16(2000), uint16(0), uint8(4), uint16(512))
	f.Fuzz(func(t *testing.T, seed int64, pids, quantum uint8, sourceEvery, sinkEvery uint16, workers uint8, ckpt uint16) {
		spec := tracegen.Spec{
			Seed:        seed,
			Events:      10_000,
			PIDs:        1 + int(pids)%64,
			Quantum:     1 + int(quantum)%64,
			SourceEvery: 1 + int(sourceEvery),
			SinkEvery:   1 + int(sinkEvery)%512,
		}
		opts := pipeline.Options{Workers: 1 + int(workers)%4, Config: testCfg}
		if ckpt >= 512 {
			opts.CheckpointEvery = uint64(ckpt)
		}
		var buf bytes.Buffer
		if _, err := tracegen.Generate(spec).WriteToFormat(&buf, trace.FormatV2); err != nil {
			t.Fatal(err)
		}
		projected, full, projCkpt, fullCkpt := drainBoth(t, buf.Bytes(), opts)
		if projected.Stats != full.Stats {
			t.Fatalf("%+v %+v: stats\nprojected %+v\nfull      %+v", spec, opts, projected.Stats, full.Stats)
		}
		if !reflect.DeepEqual(projected.Verdicts, full.Verdicts) {
			t.Fatalf("%+v %+v: verdicts differ", spec, opts)
		}
		if !bytes.Equal(projCkpt, fullCkpt) {
			t.Fatalf("%+v %+v: checkpoint bytes differ", spec, opts)
		}
	})
}

// TestDrainTraceEventsTotal: pift_pipeline_events_total counts every
// event a DrainTrace worker analyzes, those its reader counted instead of
// delivering included. Over tracegen PIFTTRC3 corpora with no sources,
// the default density and a dense one, drained at 1, 2 and 4 workers,
// with and without a no-op Observer and with checkpoints every 5000
// events, the counter ends at the trace's event count.
func TestDrainTraceEventsTotal(t *testing.T) {
	const events = 30_000
	for _, every := range []int{1 << 30, 0, 256} {
		var buf bytes.Buffer
		rec := tracegen.Generate(tracegen.Spec{Seed: int64(every), Events: events, PIDs: 16, SourceEvery: every})
		if _, err := rec.WriteToFormat(&buf, trace.FormatV2); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, obs := range []func(int, cpu.Event){nil, func(int, cpu.Event) {}} {
				for _, ckpt := range []uint64{0, 5000} {
					name := fmt.Sprintf("sourceEvery=%d/workers=%d/observer=%t/ckpt=%d", every, workers, obs != nil, ckpt)
					reg := metrics.NewRegistry()
					opts := pipeline.Options{Workers: workers, Config: testCfg, Observer: obs, Metrics: reg, CheckpointEvery: ckpt}
					if ckpt > 0 {
						opts.OnCheckpoint = func(p *pipeline.Pipeline) error {
							_, err := p.WriteCheckpoint(io.Discard)
							return err
						}
					}
					if _, err := pipeline.New(opts).DrainTrace(context.Background(), bytes.NewReader(buf.Bytes())); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := reg.Counter("pift_pipeline_events_total", "").Value(); got != events {
						t.Fatalf("%s: pift_pipeline_events_total = %d, want %d", name, got, events)
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
		if projected.Stats != full.Stats || projected.Stats != oracle.Stats() {
			t.Fatalf("workers=%d: stats\nprojected %+v\nfull      %+v\noracle    %+v", workers, projected.Stats, full.Stats, oracle.Stats())
		}
		if !reflect.DeepEqual(projected.Verdicts, wantVerdicts) || !reflect.DeepEqual(full.Verdicts, wantVerdicts) {
			t.Fatalf("workers=%d: verdicts differ from the oracle's", workers)
		}
	}
}
