package pipeline_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// TestDrainTraceEarliestDamage: a trace damaged in two places, in events
// of PIDs that different shards own at 2 and at 4 workers, fails
// DrainTrace with the error a plain NextBatch loop over the same bytes
// reports — same sentinel, same event index — at 1, 2 and 4 workers. The
// earlier damage sits on the shard with the higher worker index, so a
// rule that picked the first worker's error, rather than the lowest
// offset, would report the later damage. In PIFTTRC3 both places are
// CRC-clean structural breaks inside one PID's run, which only the worker
// that keeps the run decodes, and both PIDs hold taint at their damaged
// blocks, so the worker decodes their ranges.
//
// A DrainTrace worker reads a quiet process's events without their
// ranges, which Algorithm 1 does not read, and so does not see damage to
// their values: the v2-quiet case damages a range start of a quiet PID,
// and the drain must return the Result of the undamaged trace while a
// plain read still fails at that event's block.
func TestDrainTraceEarliestDamage(t *testing.T) {
	rec := tracegen.Generate(tracegen.Spec{Seed: 71, Events: 40_000, PIDs: 16, Quantum: 64, SourceEvery: 64})
	// early's shard sits above late's at both widths.
	var early, late uint32
	for a := uint32(1); a <= 16 && early == 0; a++ {
		for c := uint32(1); c <= 16; c++ {
			if pipeline.ShardOf(a, 2) > pipeline.ShardOf(c, 2) && pipeline.ShardOf(a, 4) > pipeline.ShardOf(c, 4) {
				early, late = a, c
				break
			}
		}
	}
	if early == 0 {
		t.Fatal("no PID pair on ordered shards at 2 and 4 workers")
	}

	t.Run("v1", func(t *testing.T) {
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		rec1 := func(i int) []byte { return raw[trace.HeaderSize+i*trace.EventSize:][:trace.EventSize] }
		i1 := firstOf(t, rec.Events, early, 10_000)
		i2 := firstOf(t, rec.Events, late, 25_000)
		rec1(i1)[0] = 7 // unknown kind
		r2 := rec1(i2)  // inverted range: end below start
		binary.LittleEndian.PutUint32(r2[17:], binary.LittleEndian.Uint32(r2[13:])-1)
		checkEarliest(t, raw)
	})

	t.Run("v2", func(t *testing.T) {
		raw, idx := encodeV2(t, rec)
		for _, d := range []struct {
			pid  uint32
			near uint64
		}{{early, 10_000}, {late, 25_000}} {
			b := blockAt(idx, d.near)
			if len(replay(rec.Events[:b.First]).Store().(*core.IdealStore).Ranges(d.pid)) == 0 {
				t.Fatalf("PID %d holds no taint at the block at %d: a projected drain would not decode its ranges", d.pid, b.First)
			}
			breakRangeStart(t, raw, b, rec.Events, d.pid)
		}
		checkEarliest(t, raw)
	})

	t.Run("v2-quiet", func(t *testing.T) {
		rec, raw, b, quiet := quietBlock(t)
		clean := bytes.Clone(raw)
		breakRangeStart(t, raw, b, rec.Events, quiet)

		r, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var plainErr error
		for buf := make([]cpu.Event, 256); plainErr == nil; {
			_, plainErr = r.NextBatch(buf)
		}
		if !errors.Is(plainErr, trace.ErrCorrupt) || r.Offset() != b.First {
			t.Fatalf("plain read ended with %v at %d, want ErrCorrupt at the block at %d", plainErr, r.Offset(), b.First)
		}
		for _, workers := range []int{1, 2, 4} {
			drain := func(raw []byte) pipeline.Result {
				res, err := pipeline.New(pipeline.Options{Workers: workers, Config: testCfg}).
					DrainTrace(context.Background(), bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}
			got, want := drain(raw), drain(clean)
			if got.Stats != want.Stats || !reflect.DeepEqual(got.Verdicts, want.Verdicts) {
				t.Fatalf("workers=%d: the damaged trace's Result differs from the undamaged one's", workers)
			}
		}
	})

	// A DrainTrace worker counts a quiet process's loads and stores but
	// still checks every kind/tag and seq value of them: an over-long
	// varint there fails the drain as it fails a plain read.
	for col, name := range []string{"v2-quiet-kind", "v2-quiet-seq"} {
		t.Run(name, func(t *testing.T) {
			rec, raw, b, quiet := quietBlock(t)
			raw = overlongValue(t, raw, b, rec.Events, quiet, col)
			r, err := trace.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var plainErr error
			for buf := make([]cpu.Event, 256); plainErr == nil; {
				_, plainErr = r.NextBatch(buf)
			}
			if !errors.Is(plainErr, trace.ErrCorrupt) || r.Offset() != b.First {
				t.Fatalf("plain read ended with %v at %d, want ErrCorrupt at the block at %d", plainErr, r.Offset(), b.First)
			}
			checkEarliest(t, raw)
		})
	}
}

// quietBlock generates a trace in which some process is quiet through
// the PIFTTRC3 block that holds event 25,000, and returns the trace, its
// bytes, that block and the quiet PID.
func quietBlock(t *testing.T) (*trace.Recorder, []byte, trace.BlockInfo, uint32) {
	t.Helper()
	// At this density most processes hold taint by event 25,000 and
	// a few are quiet through the block that holds it.
	rec := tracegen.Generate(tracegen.Spec{Seed: 72, Events: 40_000, PIDs: 16, Quantum: 64, SourceEvery: 1024})
	raw, idx := encodeV2(t, rec)
	b := blockAt(idx, 25_000)
	block := rec.Events[b.First : b.First+uint64(b.Count)]
	tr := replay(rec.Events[:b.First])
	if tr.Stats().TaintOps == 0 {
		t.Fatal("no process has spread taint before the damaged block")
	}
	for pid := uint32(1); pid <= 16; pid++ {
		has := func(ev cpu.Event) bool { return ev.PID == pid }
		source := func(ev cpu.Event) bool { return ev.PID == pid && ev.Kind == cpu.EvSourceRegister }
		if tr.Quiet(pid) && slices.ContainsFunc(block, has) && !slices.ContainsFunc(block, source) {
			return rec, raw, b, pid
		}
	}
	t.Fatalf("no PID is quiet through the block at %d", b.First)
	return nil, nil, b, 0
}

// encodeV2 serializes rec as PIFTTRC3 and indexes it.
func encodeV2(t *testing.T, rec *trace.Recorder) ([]byte, *trace.Index) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := rec.WriteToFormat(&buf, trace.FormatV2); err != nil {
		t.Fatal(err)
	}
	idx, err := trace.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), idx
}

// blockAt returns the PIFTTRC3 block that holds event near.
func blockAt(idx *trace.Index, near uint64) trace.BlockInfo {
	var b trace.BlockInfo
	for i := 0; i < idx.Blocks(); i++ {
		if b = idx.Block(i); b.First <= near && near < b.First+uint64(b.Count) {
			break
		}
	}
	return b
}

// replay applies evs to a fresh tracker.
func replay(evs []cpu.Event) *core.Tracker {
	tr := core.NewTracker(testCfg, nil)
	tr.EventBatch(evs)
	return tr
}

// firstOf returns the index of pid's first event at or after from.
func firstOf(t *testing.T, evs []cpu.Event, pid uint32, from int) int {
	t.Helper()
	for i := from; i < len(evs); i++ {
		if evs[i].PID == pid {
			return i
		}
	}
	t.Fatalf("PID %d has no event after %d", pid, from)
	return 0
}

// breakRangeStart damages pid's first event in PIFTTRC3 block b: its
// range-start delta, the first of pid's chain in the block and so the
// start itself zigzagged (even), gets its low bit set, which decodes to a
// negative start. The block's CRC is recomputed, so only a decoder that
// keeps pid's run, and decodes its ranges, sees the break.
func breakRangeStart(t *testing.T, raw []byte, b trace.BlockInfo, evs []cpu.Event, pid uint32) {
	t.Helper()
	at := firstOf(t, evs, pid, int(b.First))
	if uint64(at) >= b.First+uint64(b.Count) {
		t.Fatalf("PID %d has no event in the block at %d", pid, b.First)
	}
	const blockHeaderSize = 20
	payload := raw[b.Offset+blockHeaderSize:][:b.Payload]
	i := columnValue(t, payload, int(b.Count), 2, at-int(b.First))
	if payload[i]&1 != 0 {
		t.Fatalf("event %d: range-start delta is not a chain start", at)
	}
	payload[i] |= 1
	binary.LittleEndian.PutUint32(raw[b.Offset+16:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
}

// columnValue returns the offset in payload of the value of event at
// (an index into the block) in data column col (0 kind/tag, 1 seq, 2
// range start) of a PIFTTRC3 block payload of count events.
func columnValue(t *testing.T, payload []byte, count, col, at int) int {
	t.Helper()
	i := 0
	skip := func(n int) {
		for ; n > 0; n-- {
			_, w := binary.Uvarint(payload[i:])
			if w <= 0 {
				t.Fatal("malformed block payload")
			}
			i += w
		}
	}
	ndict, w := binary.Uvarint(payload)
	i += w
	skip(int(ndict))
	for filled := 0; filled < count; {
		skip(1) // dictionary index
		n, w := binary.Uvarint(payload[i:])
		i += w
		filled += int(n)
	}
	skip(col*count + at)
	return i
}

// overlongValue rewrites pid's first event in PIFTTRC3 block b, its value
// in data column col (0 kind/tag, 1 seq), as an 11-byte varint, one byte
// more than a uint64 may take, and fixes the block's payload length and
// CRC, so only a decoder that checks the value sees the damage. It
// returns the new trace bytes.
func overlongValue(t *testing.T, raw []byte, b trace.BlockInfo, evs []cpu.Event, pid uint32, col int) []byte {
	t.Helper()
	at := firstOf(t, evs, pid, int(b.First))
	if uint64(at) >= b.First+uint64(b.Count) {
		t.Fatalf("PID %d has no event in the block at %d", pid, b.First)
	}
	const blockHeaderSize = 20
	start := int(b.Offset) + blockHeaderSize
	payload := raw[start:][:b.Payload]
	i := columnValue(t, payload, int(b.Count), col, at-int(b.First))
	v, w := binary.Uvarint(payload[i:])
	long := make([]byte, 11)
	for k := range long[:10] {
		long[k] = byte(v>>(7*k))&0x7f | 0x80
	}
	out := slices.Concat(raw[:start+i], long, raw[start+i+w:])
	payload = out[start:][:len(payload)-w+len(long)]
	binary.LittleEndian.PutUint32(out[b.Offset+12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[b.Offset+16:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

var eventIndex = regexp.MustCompile(`event (\d+)`)

// checkEarliest drains raw through a plain NextBatch loop and through
// DrainTrace at 1, 2 and 4 workers, and requires the same sentinel and
// the same event index in every error.
func checkEarliest(t *testing.T, raw []byte) {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var want error
	buf := make([]cpu.Event, 256)
	for want == nil {
		_, want = r.NextBatch(buf)
	}
	if want == io.EOF {
		t.Fatal("damaged trace read clean")
	}
	wantAt := eventIndex.FindStringSubmatch(want.Error())
	if wantAt == nil {
		t.Fatalf("plain read error %q names no event", want)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, err := pipeline.New(pipeline.Options{Workers: workers, Config: testCfg}).
				DrainTrace(context.Background(), bytes.NewReader(raw))
			if err == nil {
				t.Fatal("damaged trace drained clean")
			}
			for _, s := range []error{trace.ErrCorrupt, trace.ErrTruncated} {
				if errors.Is(err, s) != errors.Is(want, s) {
					t.Fatalf("DrainTrace: %v; plain read: %v", err, want)
				}
			}
			if got := eventIndex.FindStringSubmatch(err.Error()); got == nil || got[1] != wantAt[1] {
				t.Fatalf("DrainTrace: %v; plain read: %v", err, want)
			}
		})
	}
}
