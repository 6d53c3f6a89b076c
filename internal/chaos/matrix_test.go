package chaos_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/eval"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// The chaos CI matrix runs one (seed, mode) cell per job via these flags;
// with neither flag set, TestChaosMatrix runs the full matrix as
// subtests. Every cell attacks both ingest paths: push cells push the
// stream into the dispatcher (an ingest loop feeding EventBatch from a
// faulted sequential reader and checkpointing through WriteCheckpoint),
// and shard-owned cells run DrainTrace (per-segment readers over a
// faulted ReaderAt).
var (
	flagSeed = flag.Int64("chaos.seed", 0, "run only this seed of the chaos matrix (0 = all)")
	flagMode = flag.String("chaos.mode", "", "run only this fault mode: torn-read, corrupt-record, worker-panic ('' = all)")
)

var matrixSeeds = []int64{11, 23, 37, 41, 53, 67, 79, 97}
var matrixModes = []string{"torn-read", "corrupt-record", "worker-panic"}

var matrixCfg = core.Config{NI: 13, NT: 3, Untaint: true}

const (
	matrixWorkers   = 4
	matrixBatch     = 64
	checkpointEvery = 512
)

// matrixWorkload serializes the multi-process DroidBench suite workload
// once; every cell attacks the same byte stream.
var matrixWorkload = sync.OnceValues(func() ([]byte, error) {
	wl, err := eval.NewHarness(1).SuiteWorkload(64)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := wl.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
})

// matrixWorkloadV2 is the same workload on the block-compressed wire,
// produced through the streaming transcoder so chaos also covers the
// v1→v2 path a migrating deployment runs.
var matrixWorkloadV2 = sync.OnceValues(func() ([]byte, error) {
	raw, err := matrixWorkload()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := trace.Transcode(&buf, bytes.NewReader(raw), trace.FormatV2); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
})

func resultKey(res pipeline.Result) string {
	return fmt.Sprintf("%#v|%#v|%d", res.Stats, res.Verdicts, res.Events)
}

// dispatch feeds src into p the way an ingest loop does: NextBatch into
// one buffer, then EventBatch. With ckpt non-nil each batch is capped at
// the next checkpointEvery multiple of the stream, and ckpt runs at every
// multiple. It returns the first decode or checkpoint error, or nil at
// the stream's end, and leaves p open.
func dispatch(p *pipeline.Pipeline, src *trace.Reader, ckpt func(*pipeline.Pipeline) error) error {
	buf := make([]cpu.Event, matrixBatch)
	for {
		limit := uint64(len(buf))
		if ckpt != nil {
			limit = min(limit, checkpointEvery-p.Offset()%checkpointEvery)
		}
		n, err := src.NextBatch(buf[:limit])
		p.EventBatch(buf[:n])
		if ckpt != nil && n > 0 && p.Offset()%checkpointEvery == 0 {
			if cerr := ckpt(p); cerr != nil {
				return cerr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// cleanRun feeds the serialized workload through an unfaulted pipeline's
// dispatcher.
func cleanRun(t *testing.T, raw []byte) pipeline.Result {
	t.Helper()
	src, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(pipeline.Options{
		Workers: matrixWorkers, BatchSize: matrixBatch, Config: matrixCfg,
	})
	err = dispatch(p, src, nil)
	res := p.Close()
	if err == nil {
		err = res.Err
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChaosMatrix is the resumed-equals-clean acceptance proof. Each cell
// derives a fault schedule from its seed, runs the workload with periodic
// checkpoints until the fault kills the run, then restores the last good
// checkpoint and drains the remainder with no faults. The resumed result
// must be byte-identical to an uninterrupted run — for every seed, every
// fault mode, and both ingest paths.
func TestChaosMatrix(t *testing.T) {
	raw, err := matrixWorkload()
	if err != nil {
		t.Fatal(err)
	}
	rawV2, err := matrixWorkloadV2()
	if err != nil {
		t.Fatal(err)
	}
	want := resultKey(cleanRun(t, raw))
	// The compressed encoding must not change results: the clean v2 run
	// is the baseline every v2 cell resumes toward, and it must be
	// byte-identical to the v1 one.
	if got := resultKey(cleanRun(t, rawV2)); got != want {
		t.Fatalf("clean v2 run diverges from clean v1 run\n got %.300s\nwant %.300s", got, want)
	}

	seeds, modes := matrixSeeds, matrixModes
	if *flagSeed != 0 {
		seeds = []int64{*flagSeed}
	}
	if *flagMode != "" {
		ok := false
		for _, m := range matrixModes {
			ok = ok || m == *flagMode
		}
		if !ok {
			t.Fatalf("unknown -chaos.mode %q (have %v)", *flagMode, matrixModes)
		}
		modes = []string{*flagMode}
	}
	for _, mode := range modes {
		for _, seed := range seeds {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				// Every cell attacks both ingest paths on both wire
				// formats; the v2 cells corrupt arbitrary bytes (block
				// CRCs and chain checks catch everything), the v1 cells
				// target record kind bytes as before.
				for _, pf := range []struct {
					name string
					data []byte
				}{
					{"push", raw}, {"shard-owned", raw},
					{"push-v2", rawV2}, {"shard-owned-v2", rawV2},
				} {
					pf := pf
					t.Run(pf.name, func(t *testing.T) {
						runChaosCell(t, pf.data, want, mode, seed, pf.name)
					})
				}
			})
		}
	}
}

func runChaosCell(t *testing.T, raw []byte, want string, mode string, seed int64, path string) {
	// A fresh injector per path: the schedule derivation below draws in a
	// fixed order, so both paths of a cell attack the same logical
	// positions — same torn byte, same corrupt record, same panic event.
	in := chaos.New(seed)

	// The faulted run: checkpoint every checkpointEvery events, keep the
	// last checkpoint that succeeded. WriteCheckpoint refuses once a
	// shard has faulted, so lastGood can only hold states the clean
	// execution passes through.
	var lastGood []byte
	var saved []uint64 // offsets at which save was called
	save := func(p *pipeline.Pipeline) error {
		saved = append(saved, p.Offset())
		var buf bytes.Buffer
		if _, err := p.WriteCheckpoint(&buf); err != nil {
			return err
		}
		lastGood = buf.Bytes()
		return nil
	}
	opts := pipeline.Options{
		Workers: matrixWorkers, BatchSize: matrixBatch, Config: matrixCfg,
		CheckpointEvery: checkpointEvery,
		OnCheckpoint:    save,
	}

	sniff, serr := trace.NewReader(bytes.NewReader(raw))
	if serr != nil {
		t.Fatal(serr)
	}
	v2 := sniff.Format() == trace.FormatV2
	rf := chaos.NoReaderFaults()
	switch mode {
	case "torn-read":
		// Tear anywhere past the header so the Reader constructs; on the
		// push path, also slice reads short so record boundaries never
		// align with read boundaries.
		rf.TornAt = in.Between(trace.HeaderSize+1, int64(len(raw)))
		rf.MaxRead = 4096
	case "corrupt-record":
		if v2 {
			// Any flipped body byte is detected: block headers are
			// validated against the chain and the declared total, and
			// payloads are CRC-checked.
			rf.CorruptAt = in.Between(trace.HeaderSize, int64(len(raw)))
		} else {
			nEvents := int64(len(raw)-trace.HeaderSize) / trace.EventSize
			// Flip the high bit of a record's kind byte: always an invalid
			// kind, so the corruption is always detected, never silently
			// analyzed.
			rf.CorruptAt = trace.HeaderSize + in.Between(0, nEvents)*trace.EventSize
		}
	case "worker-panic":
		wf := chaos.NoWorkerFaults()
		wf.PanicWorker = int(in.Between(0, matrixWorkers))
		wf.PanicAfter = uint64(in.Between(0, 500)) // the panic fails the shard, and the run
		opts.Observer = in.Observer(wf)
	default:
		t.Fatalf("unknown mode %q", mode)
	}

	var err error
	switch strings.TrimSuffix(path, "-v2") {
	case "push":
		stream := io.Reader(bytes.NewReader(raw))
		if mode != "worker-panic" {
			stream = in.Reader(stream, rf)
		}
		src, rerr := trace.NewReader(stream)
		if rerr != nil {
			t.Fatal(rerr)
		}
		p := pipeline.New(opts)
		err = dispatch(p, src, save)
		if res := p.Close(); err == nil {
			err = res.Err
		}
	case "shard-owned":
		ra := io.ReaderAt(bytes.NewReader(raw))
		if mode != "worker-panic" {
			ra = in.ReaderAt(ra, rf)
		}
		_, err = pipeline.New(opts).DrainTrace(context.Background(), ra)
	default:
		t.Fatalf("unknown path %q", path)
	}
	if err == nil {
		t.Fatalf("seed %d: %s fault never fired — the cell proved nothing", seed, mode)
	}
	t.Logf("seed %d: faulted %s run died as scheduled: %v", seed, path, err)
	for i, off := range saved {
		if want := uint64(i+1) * checkpointEvery; off != want {
			t.Fatalf("seed %d: checkpoint %d at offset %d, want %d", seed, i, off, want)
		}
	}

	// The recovery: restore the last good checkpoint (or start from
	// scratch if the fault struck before the first boundary) and drain
	// the remainder with no faults, through the same ingest path.
	var resumed *pipeline.Pipeline
	if lastGood == nil {
		t.Logf("seed %d: fault preceded the first checkpoint; resuming from scratch", seed)
		resumed = pipeline.New(pipeline.Options{
			Workers: matrixWorkers, BatchSize: matrixBatch, Config: matrixCfg,
		})
	} else {
		resumed, err = pipeline.Restore(bytes.NewReader(lastGood), pipeline.Options{BatchSize: matrixBatch})
		if err != nil {
			t.Fatalf("seed %d: Restore: %v", seed, err)
		}
	}
	var res pipeline.Result
	if strings.TrimSuffix(path, "-v2") == "push" {
		cleanSrc, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if err := cleanSrc.Skip(resumed.Offset()); err != nil {
			t.Fatalf("seed %d: Skip(%d): %v", seed, resumed.Offset(), err)
		}
		err = dispatch(resumed, cleanSrc, nil)
		res = resumed.Close()
		if err == nil {
			err = res.Err
		}
		if err != nil {
			t.Fatalf("seed %d: resumed dispatch: %v", seed, err)
		}
	} else {
		// The shard-owned planner starts at the restored offset itself.
		res, err = resumed.DrainTrace(context.Background(), bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("seed %d: resumed shard-owned drain: %v", seed, err)
		}
	}
	if got := resultKey(res); got != want {
		t.Fatalf("seed %d mode %s path %s: resumed result diverges from clean run\n got %.300s\nwant %.300s",
			seed, mode, path, got, want)
	}
}
