package pipeline_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pipeline"
)

// resultKey canonicalizes the comparable part of a merged result. The
// watermarks are per-shard maxima on multi-process streams, so resumed-
// versus-clean comparisons at the SAME worker count may include them —
// per-shard state is preserved exactly across checkpoint/restore.
func resultKey(stats core.Stats, verdicts []core.SinkVerdict, events uint64) string {
	return fmt.Sprintf("%#v|%#v|%d", stats, verdicts, events)
}

// cleanPipelineRun replays evs through a fresh pipeline.
func cleanPipelineRun(t *testing.T, evs []cpu.Event, opts pipeline.Options) pipeline.Result {
	t.Helper()
	p := pipeline.New(opts)
	for _, ev := range evs {
		p.Event(ev)
	}
	res := p.Close()
	if res.Err != nil {
		t.Fatalf("clean run failed: %v", res.Err)
	}
	return res
}

// TestCheckpointResumeEquivalence cuts a multi-process synthetic stream
// at assorted offsets — batch-aligned and not — checkpoints there, keeps
// feeding the original pipeline past the cut (the "kill" then discards
// it), restores a second pipeline from the checkpoint bytes, feeds it the
// tail, and demands a byte-identical merged result.
func TestCheckpointResumeEquivalence(t *testing.T) {
	evs := syntheticStream(40_000, 6, 21)
	opts := pipeline.Options{Workers: 4, BatchSize: 64, Config: testCfg}
	want := cleanPipelineRun(t, evs, opts)
	wantKey := resultKey(want.Stats, want.Verdicts, want.Events)

	for _, cut := range []int{0, 1, 63, 64, 65, 8_192, 20_011, 39_999, 40_000} {
		p := pipeline.New(opts)
		for _, ev := range evs[:cut] {
			p.Event(ev)
		}
		var ckpt bytes.Buffer
		if _, err := p.WriteCheckpoint(&ckpt); err != nil {
			t.Fatalf("cut %d: WriteCheckpoint: %v", cut, err)
		}
		// Simulate the crash: the original keeps running past the
		// checkpoint, then its progress is discarded.
		for _, ev := range evs[cut:min(cut+500, len(evs))] {
			p.Event(ev)
		}
		p.Close()

		r, err := pipeline.Restore(bytes.NewReader(ckpt.Bytes()), pipeline.Options{BatchSize: 64})
		if err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		if r.Offset() != uint64(cut) {
			t.Fatalf("cut %d: restored offset %d", cut, r.Offset())
		}
		if r.Workers() != opts.Workers {
			t.Fatalf("cut %d: restored workers %d, want %d", cut, r.Workers(), opts.Workers)
		}
		for _, ev := range evs[cut:] {
			r.Event(ev)
		}
		res := r.Close()
		if res.Err != nil {
			t.Fatalf("cut %d: resumed run failed: %v", cut, res.Err)
		}
		if got := resultKey(res.Stats, res.Verdicts, res.Events); got != wantKey {
			t.Fatalf("cut %d: resumed result diverges from clean run\n got %.200s\nwant %.200s", cut, got, wantKey)
		}
	}
}

// TestCheckpointDeterministic: checkpointing the same prefix twice — even
// across distinct pipelines — yields identical bytes.
func TestCheckpointDeterministic(t *testing.T) {
	evs := syntheticStream(10_000, 4, 5)
	opts := pipeline.Options{Workers: 3, BatchSize: 32, Config: testCfg}
	var want []byte
	for trial := 0; trial < 3; trial++ {
		p := pipeline.New(opts)
		for _, ev := range evs {
			p.Event(ev)
		}
		var buf bytes.Buffer
		if _, err := p.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		p.Close()
		if trial == 0 {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("trial %d: checkpoint bytes differ", trial)
		}
	}
}

// TestCheckpointUsableMidStream: Sync/WriteCheckpoint are barriers, not
// shutdowns — the pipeline must keep analyzing afterwards, and repeated
// checkpoints must each capture the then-current offset.
func TestCheckpointUsableMidStream(t *testing.T) {
	evs := syntheticStream(9_000, 3, 9)
	opts := pipeline.Options{Workers: 2, BatchSize: 16, Config: testCfg}
	want := cleanPipelineRun(t, evs, opts)

	p := pipeline.New(opts)
	var offsets []uint64
	for i, ev := range evs {
		p.Event(ev)
		if (i+1)%2_000 == 0 {
			var buf bytes.Buffer
			if _, err := p.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			offsets = append(offsets, p.Offset())
		}
	}
	res := p.Close()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got, wantK := resultKey(res.Stats, res.Verdicts, res.Events),
		resultKey(want.Stats, want.Verdicts, want.Events); got != wantK {
		t.Fatal("checkpointing mid-stream changed the merged result")
	}
	for i, off := range offsets {
		if off != uint64(2_000*(i+1)) {
			t.Fatalf("checkpoint %d at offset %d", i, off)
		}
	}
}

// TestRestoreRejectsCorruption: bad magic, flipped payload bits (CRC),
// truncations, and conflicting options must all fail loudly.
func TestRestoreRejectsCorruption(t *testing.T) {
	evs := syntheticStream(5_000, 3, 2)
	p := pipeline.New(pipeline.Options{Workers: 2, Config: testCfg})
	for _, ev := range evs {
		p.Event(ev)
	}
	var buf bytes.Buffer
	if _, err := p.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	p.Close()
	full := buf.Bytes()

	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), full...)
		mutate(b)
		_, err := pipeline.Restore(bytes.NewReader(b), pipeline.Options{})
		return err
	}
	if err := corrupt(func(b []byte) { b[0] ^= 1 }); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := corrupt(func(b []byte) { b[len(b)/2] ^= 0x10 }); err == nil {
		t.Fatal("bit flip in payload accepted (CRC failed to catch it)")
	}
	if err := corrupt(func(b []byte) { b[len(b)-1] ^= 0xff }); err == nil {
		t.Fatal("bit flip in CRC trailer accepted")
	}
	for _, cut := range []int{0, 7, 8, 15, 16, len(full) / 2, len(full) - 1} {
		if _, err := pipeline.Restore(bytes.NewReader(full[:cut]), pipeline.Options{}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := pipeline.Restore(bytes.NewReader(full), pipeline.Options{Workers: 5}); err == nil {
		t.Fatal("conflicting worker count accepted")
	}
	if _, err := pipeline.Restore(bytes.NewReader(full), pipeline.Options{
		Config: core.Config{NI: 99, NT: 1},
	}); err == nil {
		t.Fatal("conflicting config accepted")
	}
	// The pristine checkpoint must still restore (the mutations above
	// worked on copies).
	r, err := pipeline.Restore(bytes.NewReader(full), pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// TestRestoreClaimedPayload: a bare 16-byte checkpoint header that claims
// a 1 GiB payload fails as truncated, without allocating the payload it
// claims.
func TestRestoreClaimedPayload(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint64([]byte("PIFTCKP1"), 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := pipeline.Restore(bytes.NewReader(hdr), pipeline.Options{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("16-byte checkpoint claiming 1 GiB allocated %d bytes", alloc)
	}
}

// FuzzRestore: every input either fails to restore, or restores a
// pipeline whose checkpoint is stable — restoring the checkpoint it
// writes and writing again gives the same bytes — and which then closes.
// Each input is also tried with its length field and CRC trailer
// recomputed, so mutations reach the payload behind the CRC check. The
// seeds are real checkpoints at 1, 2 and 4 workers, and truncated copies.
func FuzzRestore(f *testing.F) {
	evs := syntheticStream(2_000, 6, 31)
	for _, workers := range []int{1, 2, 4} {
		p := pipeline.New(pipeline.Options{Workers: workers, Config: testCfg})
		p.EventBatch(evs)
		var buf bytes.Buffer
		if _, err := p.WriteCheckpoint(&buf); err != nil {
			f.Fatal(err)
		}
		p.Close()
		full := buf.Bytes()
		f.Add(full)
		f.Add(full[:len(full)/2])
		f.Add(full[:len(full)-1])
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRestore(t, data)
		if len(data) >= 20 {
			fixed := append([]byte(nil), data...)
			payload := fixed[16 : len(fixed)-4]
			binary.LittleEndian.PutUint64(fixed[8:], uint64(len(payload)))
			binary.LittleEndian.PutUint32(fixed[len(fixed)-4:], crc32.Checksum(payload, castagnoli))
			checkRestore(t, fixed)
		}
	})
}

// checkRestore restores data and, if that succeeds, requires the
// restored pipeline's checkpoint to be stable.
func checkRestore(t *testing.T, data []byte) {
	// Every worker is a goroutine; a claim of more than 64 keeps each
	// execution small by skipping, not by failing.
	if len(data) >= 28 && binary.LittleEndian.Uint32(data[24:]) > 64 {
		return
	}
	p, err := pipeline.Restore(bytes.NewReader(data), pipeline.Options{})
	if err != nil {
		return
	}
	first := checkpointAndClose(t, p)
	q, err := pipeline.Restore(bytes.NewReader(first), pipeline.Options{})
	if err != nil {
		t.Fatalf("restoring a written checkpoint: %v", err)
	}
	if second := checkpointAndClose(t, q); !bytes.Equal(first, second) {
		t.Fatalf("checkpoint not stable: %d bytes, then %d", len(first), len(second))
	}
}

// checkpointAndClose writes p's checkpoint and closes p.
func checkpointAndClose(t *testing.T, p *pipeline.Pipeline) []byte {
	var buf bytes.Buffer
	_, err := p.WriteCheckpoint(&buf)
	if res := p.Close(); err == nil {
		err = res.Err
	}
	if err != nil {
		t.Fatalf("checkpointing a restored pipeline: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointRefusedAfterFault: a pipeline with a failed shard must
// refuse to checkpoint — its state diverged from the clean execution, and
// resuming from it would silently bake the divergence in — and Close
// reports the fault with no Stats and no Verdicts.
func TestCheckpointRefusedAfterFault(t *testing.T) {
	evs := syntheticStream(5_000, 1, 4)
	var seen uint64
	p := pipeline.New(pipeline.Options{
		Workers:   1,
		BatchSize: 32,
		Config:    testCfg,
		Observer: func(worker int, ev cpu.Event) {
			seen++
			if seen == 100 {
				panic("sneaky fault")
			}
		},
	})
	for _, ev := range evs {
		p.Event(ev)
	}
	var buf bytes.Buffer
	if _, err := p.WriteCheckpoint(&buf); err == nil ||
		!strings.Contains(err.Error(), "checkpoint refused") || !strings.Contains(err.Error(), "sneaky fault") {
		t.Fatalf("WriteCheckpoint after fault: err = %v, want refusal naming the panic", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused checkpoint wrote %d bytes", buf.Len())
	}
	res := p.Close()
	if res.Err == nil || res.Stats != (core.Stats{}) || res.Verdicts != nil {
		t.Fatalf("Close after fault: Err %v, Stats %+v, %d verdicts; want the fault and no output", res.Err, res.Stats, len(res.Verdicts))
	}
}
