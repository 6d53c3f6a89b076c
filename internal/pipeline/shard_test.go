package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// genWire materializes a tracegen spec as PIFTTRC1 wire bytes plus the
// in-memory recorder, so one generation feeds the oracle, the dispatcher,
// and the shard-owned path alike.
func genWire(t testing.TB, spec tracegen.Spec) ([]byte, *trace.Recorder) {
	t.Helper()
	rec := tracegen.Generate(spec)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rec
}

// dispatchTrace feeds wire from p.Offset() on through the dispatcher, the
// way an ingest loop does — Skip, then NextBatch into one buffer and
// EventBatch — and closes p.
func dispatchTrace(t testing.TB, p *pipeline.Pipeline, wire []byte) pipeline.Result {
	t.Helper()
	src, err := trace.NewReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Skip(p.Offset()); err != nil {
		t.Fatalf("Skip(%d): %v", p.Offset(), err)
	}
	buf := make([]cpu.Event, pipeline.DefaultBatchSize)
	for {
		n, err := src.NextBatch(buf)
		p.EventBatch(buf[:n])
		if err == io.EOF {
			return p.Close()
		}
		if err != nil {
			p.Close()
			t.Fatal(err)
		}
	}
}

// oracle replays the recorder through one sequential tracker and returns
// the canonical "stats|verdicts" fingerprint every parallel schedule must
// reproduce verdict-for-verdict.
func oracle(rec *trace.Recorder) (core.Stats, []core.SinkVerdict) {
	return sequentialOracle(rec.Events, testCfg)
}

// TestShardOwnedMatchesSequential is the core parity claim of the
// shard-owned ingest: for every worker count, DrainTrace over the
// serialized corpus merges to byte-identical verdicts and exact counters
// against the sequential oracle.
func TestShardOwnedMatchesSequential(t *testing.T) {
	wire, rec := genWire(t, tracegen.Spec{Seed: 11, Events: 200_000, PIDs: 32, Quantum: 64})
	wantStats, wantVerdicts := oracle(rec)
	want := fmt.Sprintf("%#v", wantVerdicts)
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := pipeline.New(pipeline.Options{Workers: workers, Config: testCfg})
			res, err := p.DrainTrace(context.Background(), bytes.NewReader(wire))
			if err != nil {
				t.Fatal(err)
			}
			if res.Events != uint64(rec.Len()) {
				t.Fatalf("accounted %d events, want %d", res.Events, rec.Len())
			}
			if got := fmt.Sprintf("%#v", res.Verdicts); got != want {
				t.Errorf("verdicts diverge from sequential oracle\n got %.300s\nwant %.300s", got, want)
			}
			cmp := res.Stats
			cmp.MaxBytes, cmp.MaxRanges = wantStats.MaxBytes, wantStats.MaxRanges
			if cmp != wantStats {
				t.Errorf("counters differ: %+v, want %+v", res.Stats, wantStats)
			}
			if workers == 1 && res.Stats != wantStats {
				t.Errorf("1-worker stats %+v, want %+v", res.Stats, wantStats)
			}
		})
	}
}

// TestShardOwnedMatchesPushPath pins DrainTrace to the dispatcher at
// equal worker counts: same shard layout, same per-shard event
// subsequences, so stats — watermarks included — and verdicts must be
// fully identical, not merely oracle-equivalent.
func TestShardOwnedMatchesPushPath(t *testing.T) {
	wire, rec := genWire(t, tracegen.Spec{Seed: 12, Events: 100_000, PIDs: 16})
	for _, workers := range []int{1, 3, 4, 8} {
		opts := pipeline.Options{Workers: workers, BatchSize: 128, Config: testCfg}
		push := dispatchTrace(t, pipeline.New(opts), wire)
		if push.Err != nil {
			t.Fatal(push.Err)
		}
		shard, err := pipeline.New(opts).DrainTrace(context.Background(), bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%#v|%#v", shard.Stats, shard.Verdicts)
		want := fmt.Sprintf("%#v|%#v", push.Stats, push.Verdicts)
		if got != want {
			t.Errorf("workers=%d: shard-owned result diverges from the dispatcher\n got %.300s\nwant %.300s",
				workers, got, want)
		}
		if shard.Events != uint64(rec.Len()) || push.Events != shard.Events {
			t.Errorf("workers=%d: event accounting %d vs %d", workers, shard.Events, push.Events)
		}
	}
}

// TestShardOwnedScalingCorpus is the multi-million-event acceptance run:
// a 2M+ event, 64-PID synthetic trace drained shard-owned at 1/2/4/8
// workers, every run byte-identical to the sequential oracle.
func TestShardOwnedScalingCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-event corpus skipped under -short")
	}
	const events = 1 << 21 // 2,097,152
	wire, rec := genWire(t, tracegen.Spec{Seed: 1, Events: events, PIDs: 64})
	_, wantVerdicts := oracle(rec)
	want := fmt.Sprintf("%#v", wantVerdicts)
	if len(wantVerdicts) == 0 {
		t.Fatal("scaling corpus produced no sink verdicts; workload is degenerate")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		p := pipeline.New(pipeline.Options{Workers: workers, Config: testCfg})
		res, err := p.DrainTrace(context.Background(), bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Events != events {
			t.Fatalf("workers=%d: accounted %d events, want %d", workers, res.Events, events)
		}
		if got := fmt.Sprintf("%#v", res.Verdicts); got != want {
			t.Errorf("workers=%d: verdicts diverge from sequential oracle on %d-event corpus", workers, events)
		}
	}
}

// TestShardOwnedCheckpointOffsetParity: DrainTrace must fire checkpoints
// at exactly the CheckpointEvery multiples, and a checkpoint it writes
// must restore onto either route — DrainTrace, or Skip plus the
// dispatcher — and finish byte-identical to a clean run.
func TestShardOwnedCheckpointOffsetParity(t *testing.T) {
	wire, rec := genWire(t, tracegen.Spec{Seed: 13, Events: 10_000, PIDs: 8})
	opts := pipeline.Options{Workers: 4, BatchSize: 64, Config: testCfg}

	var offsets []uint64
	var ckpt bytes.Buffer
	o := opts
	o.CheckpointEvery = 1000
	o.OnCheckpoint = func(p *pipeline.Pipeline) error {
		offsets = append(offsets, p.Offset())
		if p.Offset() == 5000 {
			if _, err := p.WriteCheckpoint(&ckpt); err != nil {
				return err
			}
		}
		return nil
	}
	shardRes, err := pipeline.New(o).DrainTrace(context.Background(), bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	var wantOffsets []uint64
	for off := uint64(1000); off <= uint64(rec.Len()); off += 1000 {
		wantOffsets = append(wantOffsets, off)
	}
	if fmt.Sprint(offsets) != fmt.Sprint(wantOffsets) {
		t.Fatalf("checkpoint offsets %v, want %v", offsets, wantOffsets)
	}
	pushRes := dispatchTrace(t, pipeline.New(opts), wire)
	want := fmt.Sprintf("%#v|%#v", pushRes.Stats, pushRes.Verdicts)
	if got := fmt.Sprintf("%#v|%#v", shardRes.Stats, shardRes.Verdicts); got != want {
		t.Fatalf("clean results diverge between routes")
	}

	// Resume the mid-stream checkpoint through the shard-owned path: the
	// drain starts at Offset(), no Skip required.
	r2, err := pipeline.Restore(bytes.NewReader(ckpt.Bytes()), pipeline.Options{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Offset() != 5000 {
		t.Fatalf("restored offset %d, want 5000", r2.Offset())
	}
	res, err := r2.DrainTrace(context.Background(), bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%#v|%#v", res.Stats, res.Verdicts); got != want {
		t.Fatalf("shard-owned resume diverges from clean run\n got %.300s\nwant %.300s", got, want)
	}

	// And through the dispatcher, proving the checkpoint is route-agnostic.
	r3, err := pipeline.Restore(bytes.NewReader(ckpt.Bytes()), pipeline.Options{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	res = dispatchTrace(t, r3, wire)
	if got := fmt.Sprintf("%#v|%#v", res.Stats, res.Verdicts); got != want {
		t.Fatalf("dispatcher resume of shard-owned checkpoint diverges from clean run")
	}
}

// TestShardOwnedCancel: cancellation between phases shuts the pipeline
// down cleanly — workers drain their queues, goroutines exit — and
// surfaces ctx.Err().
func TestShardOwnedCancel(t *testing.T) {
	wire, _ := genWire(t, tracegen.Spec{Seed: 14, Events: 20_000, PIDs: 8})
	ctx, cancel := context.WithCancel(context.Background())
	opts := pipeline.Options{
		Workers:         2,
		CheckpointEvery: 1000,
		Config:          testCfg,
		OnCheckpoint: func(p *pipeline.Pipeline) error {
			cancel() // seen by the phase loop before the next phase starts
			return nil
		},
	}
	_, err := pipeline.New(opts).DrainTrace(ctx, bytes.NewReader(wire))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestDrainTraceAnalyzesDispatchedFirst: DrainTrace starts at Offset(),
// which counts events fed through Event before the call even while they
// sit in the dispatcher's partial batches. Those events must be analyzed
// before the trace's later events of the same processes, so the result
// is the sequential oracle's whatever the prefix length.
func TestDrainTraceAnalyzesDispatchedFirst(t *testing.T) {
	wire, rec := genWire(t, tracegen.Spec{Seed: 21, Events: 50_000, PIDs: 4, SourceEvery: 64})
	wantStats, wantVerdicts := oracle(rec)
	want := fmt.Sprintf("%#v", wantVerdicts)
	for _, workers := range []int{1, 2, 4} {
		for _, k := range []int{1, 100, 255, 257, 3000, 12345} {
			t.Run(fmt.Sprintf("workers=%d/k=%d", workers, k), func(t *testing.T) {
				p := pipeline.New(pipeline.Options{Workers: workers, Config: testCfg})
				for _, ev := range rec.Events[:k] {
					p.Event(ev)
				}
				res, err := p.DrainTrace(context.Background(), bytes.NewReader(wire))
				if err != nil {
					t.Fatal(err)
				}
				cmp := res.Stats
				cmp.MaxBytes, cmp.MaxRanges = wantStats.MaxBytes, wantStats.MaxRanges
				if cmp != wantStats || (workers == 1 && res.Stats != wantStats) {
					t.Errorf("stats %+v, want %+v", res.Stats, wantStats)
				}
				if got := fmt.Sprintf("%#v", res.Verdicts); got != want {
					t.Errorf("verdicts diverge from sequential oracle\n got %.300s\nwant %.300s", got, want)
				}
			})
		}
	}
}

// TestDrainTraceCanceledBeforeStart: under an already-canceled context
// the drain returns context.Canceled before any event reaches an
// Observer.
func TestDrainTraceCanceledBeforeStart(t *testing.T) {
	wire, _ := genWire(t, tracegen.Spec{Seed: 18, Events: 20_000, PIDs: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var seen atomic.Uint64
	_, err := pipeline.New(pipeline.Options{
		Workers:  2,
		Config:   testCfg,
		Observer: func(int, cpu.Event) { seen.Add(1) },
	}).DrainTrace(ctx, bytes.NewReader(wire))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := seen.Load(); n != 0 {
		t.Fatalf("%d events analyzed under a dead context", n)
	}
}

// TestDrainTraceCanceledMidPhase: with CheckpointEvery 0 the whole trace
// is one phase, so only the workers' per-batch check can stop the drain.
// An Observer cancels at its 1,000th event; the drain must return
// context.Canceled and leave the rest of the trace unanalyzed.
func TestDrainTraceCanceledMidPhase(t *testing.T) {
	const events = 200_000
	wire, _ := genWire(t, tracegen.Spec{Seed: 19, Events: events, PIDs: 8})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Uint64
	_, err := pipeline.New(pipeline.Options{
		Workers: 2,
		Config:  testCfg,
		Observer: func(int, cpu.Event) {
			if seen.Add(1) == 1000 {
				cancel()
			}
		},
	}).DrainTrace(ctx, bytes.NewReader(wire))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := seen.Load(); n >= events {
		t.Fatalf("all %d events analyzed after cancellation at the 1,000th", n)
	}
}

// TestShardOwnedTruncated: a trace cut mid-record fails the drain with
// the reader's truncation classification, and the pipeline still shuts
// down cleanly.
func TestShardOwnedTruncated(t *testing.T) {
	wire, _ := genWire(t, tracegen.Spec{Seed: 16, Events: 5_000, PIDs: 4})
	cut := wire[:len(wire)-7]
	_, err := pipeline.New(pipeline.Options{Workers: 4, Config: testCfg}).
		DrainTrace(context.Background(), bytes.NewReader(cut))
	if !errors.Is(err, trace.ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

// TestShardOwnedBadHeader: header validation happens before any worker
// sees an event.
func TestShardOwnedBadHeader(t *testing.T) {
	wire, _ := genWire(t, tracegen.Spec{Seed: 17, Events: 100, PIDs: 2})
	bad := append([]byte(nil), wire...)
	bad[0] ^= 0xff
	_, err := pipeline.New(pipeline.Options{Workers: 2, Config: testCfg}).
		DrainTrace(context.Background(), bytes.NewReader(bad))
	if !errors.Is(err, trace.ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

// TestShardOwnedEmptyTrace: a zero-event trace drains to an empty clean
// Result.
func TestShardOwnedEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if _, err := trace.NewRecorder(0).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.New(pipeline.Options{Workers: 4, Config: testCfg}).
		DrainTrace(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 0 || len(res.Verdicts) != 0 {
		t.Fatalf("empty trace produced %d events, %d verdicts", res.Events, len(res.Verdicts))
	}
}
