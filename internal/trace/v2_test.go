package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// uniformTrace builds a deterministic, highly regular trace: PIDs switch
// in runs of 64, Seq steps by a constant, ranges cycle through a small
// window. Full 4096-event blocks of it encode to byte-identical sizes,
// which the strict zero-alloc gate relies on.
func uniformTrace(n int) *Recorder {
	r := NewRecorder(n)
	for i := 0; i < n; i++ {
		r.Event(cpu.Event{
			Kind:  cpu.EventKind(i % 4),
			PID:   uint32(1 + (i/64)%8),
			Seq:   uint64(i) * 3,
			Range: mem.Range{Start: uint32(4096 + (i%32)*8), End: uint32(4096 + (i%32)*8 + 8)},
			Tag:   i%5 - 2,
		})
	}
	return r
}

// encodeFormat serializes rec in the given format, failing the test on
// any error.
func encodeFormat(t testing.TB, rec *Recorder, f Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := rec.WriteToFormat(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteToFormat reported %d bytes, buffer has %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestV2RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, DefaultBlockEvents - 1, DefaultBlockEvents, DefaultBlockEvents + 1, 3*DefaultBlockEvents + 17} {
		orig := randomTrace(n, int64(n)+7)
		data := encodeFormat(t, orig, FormatV2)
		back, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(back.Events) != n {
			t.Fatalf("n=%d: decoded %d events", n, len(back.Events))
		}
		for i := range orig.Events {
			if back.Events[i] != orig.Events[i] {
				t.Fatalf("n=%d: event %d differs: %+v vs %+v", n, i, back.Events[i], orig.Events[i])
			}
		}
	}
}

func TestV2FormatSniffing(t *testing.T) {
	orig := randomTrace(100, 11)
	for _, f := range []Format{FormatV1, FormatV2} {
		r, err := NewReader(bytes.NewReader(encodeFormat(t, orig, f)))
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if r.Format() != f {
			t.Fatalf("sniffed %v, want %v", r.Format(), f)
		}
		if r.Len() != 100 {
			t.Fatalf("%v: Len %d", f, r.Len())
		}
	}
}

// TestV2WriteToFormatV1 pins WriteToFormat(FormatV1) to the legacy
// serializer byte for byte.
func TestV2WriteToFormatV1(t *testing.T) {
	orig := randomTrace(500, 13)
	var legacy bytes.Buffer
	if _, err := orig.WriteTo(&legacy); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeFormat(t, orig, FormatV1), legacy.Bytes()) {
		t.Fatal("WriteToFormat(FormatV1) differs from WriteTo")
	}
}

// TestV2NextNextBatchParity proves the three consumption styles agree on
// a v2 stream across batch sizes straddling block boundaries.
func TestV2NextNextBatchParity(t *testing.T) {
	orig := randomTrace(2*DefaultBlockEvents+123, 19)
	data := encodeFormat(t, orig, FormatV2)
	for _, batch := range []int{1, 7, 256, DefaultBlockEvents, DefaultBlockEvents + 1, 1 << 16} {
		sr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainBatch(sr, batch)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if len(got) != orig.Len() {
			t.Fatalf("batch=%d: %d events, want %d", batch, len(got), orig.Len())
		}
		for i := range got {
			if got[i] != orig.Events[i] {
				t.Fatalf("batch=%d: event %d differs", batch, i)
			}
		}
		if n, err := sr.NextBatch(make([]cpu.Event, 4)); n != 0 || err != io.EOF {
			t.Fatalf("batch=%d: NextBatch after drain = (%d, %v)", batch, n, err)
		}
	}
}

// TestV2Skip checks resume positioning across block-aligned, mid-block,
// and multi-block skips.
func TestV2Skip(t *testing.T) {
	total := 2*DefaultBlockEvents + 500
	orig := randomTrace(total, 23)
	data := encodeFormat(t, orig, FormatV2)
	for _, skip := range []uint64{0, 1, 63, DefaultBlockEvents - 1, DefaultBlockEvents, DefaultBlockEvents + 1, 2*DefaultBlockEvents + 499, uint64(total)} {
		sr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := sr.Skip(skip); err != nil {
			t.Fatalf("skip %d: %v", skip, err)
		}
		if sr.Offset() != skip {
			t.Fatalf("skip %d: offset %d", skip, sr.Offset())
		}
		got, err := drainBatch(sr, 300)
		if err != nil {
			t.Fatalf("skip %d: %v", skip, err)
		}
		want := orig.Events[skip:]
		if len(got) != len(want) {
			t.Fatalf("skip %d: %d events, want %d", skip, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("skip %d: event %d differs", skip, i)
			}
		}
	}
	// Skipping beyond the declared count is an error, same as v1.
	sr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Skip(uint64(total) + 1); err == nil {
		t.Fatal("skip past the end accepted")
	}
}

// TestV2IndexPlanCover is the segment-planning property test: for every
// (readers, range) combination the planned segments are contiguous,
// non-overlapping, cover the range exactly, and each SegmentReader
// delivers exactly its slice of the original events with absolute
// offsets.
func TestV2IndexPlanCover(t *testing.T) {
	total := 3*DefaultBlockEvents + 700
	orig := randomTrace(total, 29)
	data := encodeFormat(t, orig, FormatV2)
	ra := bytes.NewReader(data)
	idx, err := LoadIndex(ra)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Format() != FormatV2 || idx.Count() != uint64(total) {
		t.Fatalf("index: format %v count %d", idx.Format(), idx.Count())
	}
	if want := (total + DefaultBlockEvents - 1) / DefaultBlockEvents; idx.Blocks() != want {
		t.Fatalf("index has %d blocks, want %d", idx.Blocks(), want)
	}
	ranges := [][2]uint64{
		{0, uint64(total)},
		{0, 100},
		{1000, 9000},
		{DefaultBlockEvents, DefaultBlockEvents},
		{uint64(total) - 1, 1},
		{137, uint64(total) - 137},
	}
	for _, readers := range []int{1, 2, 3, 4, 8, 64} {
		for _, rg := range ranges {
			first, count := rg[0], rg[1]
			segs := idx.PlanRange(first, count, readers, 512)
			if count == 0 {
				if segs != nil {
					t.Fatalf("empty range planned %d segments", len(segs))
				}
				continue
			}
			if len(segs) > readers {
				t.Fatalf("readers=%d range=%v: planned %d segments", readers, rg, len(segs))
			}
			at := first
			for _, seg := range segs {
				if seg.First != at || seg.Count == 0 {
					t.Fatalf("readers=%d range=%v: segment %+v breaks cover at %d", readers, rg, seg, at)
				}
				at = seg.End()
			}
			if at != first+count {
				t.Fatalf("readers=%d range=%v: cover ends at %d", readers, rg, at)
			}
			for _, seg := range segs {
				sr := idx.SegmentReader(ra, seg)
				if sr.Offset() != seg.First {
					t.Fatalf("segment %+v: starts at offset %d", seg, sr.Offset())
				}
				got, err := drainBatch(sr, 512)
				if err != nil {
					t.Fatalf("segment %+v: %v", seg, err)
				}
				want := orig.Events[seg.First:seg.End()]
				if len(got) != len(want) {
					t.Fatalf("segment %+v: %d events, want %d", seg, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("segment %+v: event %d differs", seg, i)
					}
				}
				if sr.Offset() != seg.End() {
					t.Fatalf("segment %+v: ends at offset %d", seg, sr.Offset())
				}
			}
		}
	}
}

// TestV2IndexV1 checks the index is format-agnostic: over a v1 trace it
// defers to the fixed-stride planner and readers.
func TestV2IndexV1(t *testing.T) {
	orig := randomTrace(10000, 31)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ra := bytes.NewReader(buf.Bytes())
	idx, err := LoadIndex(ra)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Format() != FormatV1 || idx.Count() != 10000 || idx.Blocks() != 0 {
		t.Fatalf("v1 index: %v %d %d", idx.Format(), idx.Count(), idx.Blocks())
	}
	segs := idx.PlanRange(100, 8000, 4, 512)
	if want := PlanRange(100, 8000, 4, 512); len(segs) != len(want) {
		t.Fatalf("v1 plan diverged: %v vs %v", segs, want)
	}
	for _, seg := range segs {
		sr := idx.SegmentReader(ra, seg)
		got, err := drainBatch(sr, 512)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != orig.Events[seg.First+uint64(i)] {
				t.Fatalf("segment %+v: event %d differs", seg, i)
			}
		}
	}
}

// TestV2EmptyTrace: zero events serialize to a bare header in both
// formats and decode cleanly.
func TestV2EmptyTrace(t *testing.T) {
	data := encodeFormat(t, NewRecorder(0), FormatV2)
	if len(data) != HeaderSize {
		t.Fatalf("empty v2 trace is %d bytes", len(data))
	}
	back, err := ReadFrom(bytes.NewReader(data))
	if err != nil || back.Len() != 0 {
		t.Fatalf("empty v2 trace: %v, %d events", err, back.Len())
	}
	idx, err := LoadIndex(bytes.NewReader(data))
	if err != nil || idx.Blocks() != 0 || idx.PlanSegments(4, 512) != nil {
		t.Fatalf("empty v2 index: %v", err)
	}
}

// TestV2BlockWriterMisuse pins the writer's contract errors: appending
// past the declared count, and closing short of it.
func TestV2BlockWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf, 1, 0)
	if err := bw.Append(cpu.Event{}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(cpu.Event{}); err == nil {
		t.Fatal("append past the declared count accepted")
	}
	bw = NewBlockWriter(&buf, 2, 0)
	if err := bw.Append(cpu.Event{}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err == nil {
		t.Fatal("short close accepted")
	}
	// Unencodable events are rejected like the v1 decoder would reject
	// their records: unknown kind, inverted range.
	bw = NewBlockWriter(&buf, 1, 1)
	if err := bw.Append(cpu.Event{Kind: 200}); err == nil {
		t.Fatal("unknown kind encoded")
	}
	bw = NewBlockWriter(&buf, 1, 1)
	if err := bw.Append(cpu.Event{Range: mem.Range{Start: 10, End: 3}}); err == nil {
		t.Fatal("inverted range encoded")
	}
}

// TestV2Transcode round-trips a trace v1→v2→v1 through the streaming
// transcoder and requires the final bytes to be identical to the
// original serialization.
func TestV2Transcode(t *testing.T) {
	orig := randomTrace(2*DefaultBlockEvents+99, 37)
	v1 := encodeFormat(t, orig, FormatV1)
	var v2 bytes.Buffer
	n, err := Transcode(&v2, bytes.NewReader(v1), FormatV2)
	if err != nil || n != uint64(orig.Len()) {
		t.Fatalf("v1→v2: %d events, %v", n, err)
	}
	if !bytes.Equal(v2.Bytes(), encodeFormat(t, orig, FormatV2)) {
		t.Fatal("transcoded v2 differs from direct v2 encoding")
	}
	var back bytes.Buffer
	n, err = Transcode(&back, bytes.NewReader(v2.Bytes()), FormatV1)
	if err != nil || n != uint64(orig.Len()) {
		t.Fatalf("v2→v1: %d events, %v", n, err)
	}
	if !bytes.Equal(back.Bytes(), v1) {
		t.Fatal("v1→v2→v1 is not byte-identical")
	}
}

// TestV2GoldenBytes pins the exact wire bytes of a small fixed trace, so
// any change to the encoding — varint order, zigzag convention, CRC
// polynomial, header layout — fails loudly instead of silently forking
// the format.
func TestV2GoldenBytes(t *testing.T) {
	rec := NewRecorder(6)
	rec.Event(cpu.Event{Kind: cpu.EvSourceRegister, PID: 7, Seq: 100, Range: mem.Range{Start: 4096, End: 4100}, Tag: 1})
	rec.Event(cpu.Event{Kind: cpu.EvLoad, PID: 7, Seq: 101, Range: mem.Range{Start: 4096, End: 4100}})
	rec.Event(cpu.Event{Kind: cpu.EvStore, PID: 7, Seq: 103, Range: mem.Range{Start: 4104, End: 4112}})
	rec.Event(cpu.Event{Kind: cpu.EvLoad, PID: 9, Seq: 50, Range: mem.Range{Start: 4104, End: 4112}})
	rec.Event(cpu.Event{Kind: cpu.EvSinkCheck, PID: 9, Seq: 52, Range: mem.Range{Start: 4104, End: 4108}, Tag: -3})
	rec.Event(cpu.Event{Kind: cpu.EvStore, PID: 7, Seq: 104, Range: mem.Range{Start: 4096, End: 4100}})
	got := encodeFormat(t, rec, FormatV2)
	const golden = "" +
		"5049465454524333" + // magic "PIFTTRC3"
		"0600000000000000" + // count = 6
		"0000000000000000" + // block 0: first = 0
		"06000000" + // block 0: count = 6
		"27000000" + // block 0: clen = 39
		"14950d41" + // block 0: CRC-32C of the payload
		"020709" + // pid dict: 2 entries, PIDs 7 and 9
		"000301020001" + // pid runs: dict[0]×3, dict[1]×2, dict[0]×1
		"0a0001001701" + // kind/tag: kind | zigzag(tag)<<2
		"c8010204640402" + // seq deltas: zigzag, chained per PID from 0
		"804080409040904090400f" + // range-start deltas: zigzag, chained per (PID, kind) from 0
		"040408080404" // range lengths
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden mismatch:\n got %x\nwant %x", got, want)
	}
}

// TestV2RangeStartChains: one process interleaves all four kinds across
// block boundaries, with a second process between its runs, and each
// kind's chain of range starts jumps between the two ends of the address
// space while the other kinds' chains stand elsewhere. Every event reads
// back, through plain and filtered reads. A chain that leaves the
// address space is refused, though the previous start of the process, of
// another kind, would have kept the same delta inside it.
func TestV2RangeStartChains(t *testing.T) {
	const top = 1<<32 - 1
	rec := NewRecorder(0)
	var nth [2][4]int // events so far per (process, kind)
	for i := 0; i < 60; i++ {
		p := (i / 3) % 2
		kind := cpu.EventKind(i % 4)
		if p == 1 {
			kind = 3 - kind
		}
		start := uint32(0)
		if (nth[p][kind]+int(kind)+p)%2 == 1 {
			start = top
		}
		nth[p][kind]++
		ev := cpu.Event{Kind: kind, PID: uint32(5 + 4*p), Seq: uint64(i), Range: mem.Range{Start: start, End: start}}
		if start == 0 {
			ev.Range.End = 16
		}
		rec.Event(ev)
	}
	for _, block := range []int{7, 64} {
		var buf bytes.Buffer
		bw := NewBlockWriter(&buf, uint64(rec.Len()), block)
		for _, ev := range rec.Events {
			if err := bw.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil || !slices.Equal(back.Events, rec.Events) {
			t.Fatalf("block %d: plain read differs (%v)", block, err)
		}
		keep := func(pid uint32) bool { return pid == 9 }
		got := readAll(t, buf.Bytes(), 5, func(r *Reader, dst []cpu.Event) (int, error) { return r.NextBatchKeep(dst, keep) })
		want := slices.DeleteFunc(slices.Clone(rec.Events), func(ev cpu.Event) bool { return !keep(ev.PID) })
		if got.err != io.EOF || !slices.Equal(got.events, want) {
			t.Fatalf("block %d: filtered read differs (%v)", block, got.err)
		}
	}

	// A load at the top of the address space, a store at its bottom, and
	// a load at the top again: the range-start column is the load's
	// 5-byte delta and then two zeros, one per chain.
	rec = NewRecorder(3)
	rec.Event(cpu.Event{Kind: cpu.EvLoad, PID: 5, Seq: 1, Range: mem.Range{Start: top, End: top}})
	rec.Event(cpu.Event{Kind: cpu.EvStore, PID: 5, Seq: 2, Range: mem.Range{Start: 0, End: 4}})
	rec.Event(cpu.Event{Kind: cpu.EvLoad, PID: 5, Seq: 3, Range: mem.Range{Start: top, End: top}})
	raw := encodeFormat(t, rec, FormatV2)
	payload := raw[HeaderSize+blockHeaderSize:]
	columns := []byte{1, 5, 0, 3, 0, 1, 0, 2, 2, 2}
	columns = binary.AppendUvarint(columns, zigzag(top))
	columns = append(columns, 0, 0, 0, 4, 0)
	if !bytes.Equal(payload, columns) {
		t.Fatalf("payload %x, want %x", payload, columns)
	}
	for _, c := range []struct {
		name string
		at   int  // of the range-start delta, from the payload's end
		v    byte // zigzagged delta written there
	}{
		{"store below 0", 5, 1},      // -1 from the store chain's 0
		{"load above the top", 4, 2}, // +1 from the load chain's top
	} {
		bad := slices.Clone(payload)
		bad[len(bad)-c.at] = c.v
		err := drain(reCRC(raw, bad))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "range start outside the address space") {
			t.Errorf("%s: err = %v, want ErrCorrupt: range start outside the address space", c.name, err)
		}
	}
}

// TestTagBounds: every writer carries a tag anywhere in int32 and
// refuses one outside it, because PIFTTRC1 (and a PIFTSNP1 snapshot)
// stores tags in 32 bits: a tag no format can change reads back the same
// from either, so verdicts cannot differ by format.
func TestTagBounds(t *testing.T) {
	sink := func(tag int) cpu.Event {
		return cpu.Event{Kind: cpu.EvSinkCheck, PID: 7, Seq: 1, Range: mem.Range{Start: 64, End: 72}, Tag: tag}
	}
	rec := &Recorder{Events: []cpu.Event{sink(math.MinInt32), sink(math.MaxInt32)}}
	for _, f := range []Format{FormatV1, FormatV2} {
		back, err := ReadFrom(bytes.NewReader(encodeFormat(t, rec, f)))
		if err != nil || !slices.Equal(back.Events, rec.Events) {
			t.Fatalf("%v: tags %v did not round-trip (%v)", f, rec.Events, err)
		}
	}
	// A compressed stream's varint holds a tag outside int32, so a
	// hand-built one can carry it: its one sink's kind/tag value is the
	// payload's fifth byte.
	raw := encodeFormat(t, &Recorder{Events: []cpu.Event{sink(0)}}, FormatV2)
	payload := raw[HeaderSize+blockHeaderSize:]
	if payload[4] != byte(cpu.EvSinkCheck) {
		t.Fatalf("payload %x: kind/tag value is not its fifth byte", payload)
	}
	for _, tag := range []int{math.MaxInt32 + 1, math.MinInt32 - 1} {
		rec := &Recorder{Events: []cpu.Event{sink(tag)}}
		for _, f := range []Format{FormatV1, FormatV2} {
			if _, err := rec.WriteToFormat(io.Discard, f); err == nil {
				t.Errorf("tag %d: WriteToFormat(%v) accepted it", tag, f)
			}
		}
		if err := NewBlockWriter(io.Discard, 1, 1).Append(sink(tag)); err == nil {
			t.Errorf("tag %d: BlockWriter accepted it", tag)
		}
		big := slices.Concat(payload[:4], binary.AppendUvarint(nil, uint64(cpu.EvSinkCheck)|zigzag(int64(tag))<<2), payload[5:])
		src := reCRC(raw, big)
		if back, err := ReadFrom(bytes.NewReader(src)); err != nil || back.Events[0].Tag != tag {
			t.Fatalf("tag %d: hand-built stream reads %v, %v", tag, back, err)
		}
		if _, err := Transcode(io.Discard, bytes.NewReader(src), FormatV1); err == nil {
			t.Errorf("tag %d: Transcode to v1 accepted it", tag)
		}
	}
}

// TestSkipUvarints holds skipUvarints to counting terminator bytes one
// at a time, from every start and for every count, over random bytes
// whose lengths cross its 32- and 8-byte strides.
func TestSkipUvarints(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 60; trial++ {
		b := make([]byte, rng.IntN(130))
		cont := rng.IntN(4) // continuation bytes in four: 0 is all one-byte varints
		for k := range b {
			b[k] = byte(rng.IntN(128))
			if rng.IntN(4) < cont {
				b[k] |= 0x80
			}
		}
		for i := 0; i <= len(b); i++ {
			for n := 0; n <= len(b)-i+1; n++ {
				want, left := i, n
				for ; left > 0 && want < len(b); want++ {
					if b[want] < 0x80 {
						left--
					}
				}
				if left > 0 {
					want = -1
				}
				if got := skipUvarints(b, i, n); got != want {
					t.Fatalf("skipUvarints(%x, %d, %d) = %d, want %d", b, i, n, got, want)
				}
			}
		}
	}
}

// TestCheckUvarints holds checkUvarints to binary.Uvarint applied n
// times, from every start and for every count, over random bytes whose
// continuation runs reach the over-long and overflowing varints of ten
// and eleven bytes.
func TestCheckUvarints(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 60; trial++ {
		b := make([]byte, rng.IntN(100))
		for k := 0; k < len(b); k++ {
			b[k] = byte(rng.IntN(128))
			if rng.IntN(4) == 0 { // a run of continuation bytes
				for run := rng.IntN(12); run > 0 && k < len(b)-1; run-- {
					b[k] |= 0x80
					k++
					b[k] = byte(rng.IntN(3))
				}
			}
		}
		for i := 0; i <= len(b); i++ {
			for n := 0; n <= len(b)-i+1; n++ {
				want := i
				for left := n; left > 0 && want >= 0; left-- {
					if _, w := binary.Uvarint(b[want:]); w > 0 {
						want += w
					} else {
						want = -1
					}
				}
				if got := checkUvarints(b, i, n); got != want {
					t.Fatalf("checkUvarints(%x, %d, %d) = %d, want %d", b, i, n, got, want)
				}
			}
		}
	}
}

// TestCountMem holds countMem to a byte-at-a-time count of the leading
// one-byte load and store values, from every start and for every count,
// over random kind/tag bytes whose rare values (sinks, sources and
// continuation bytes) fall at several densities across its 8-byte
// stride.
func TestCountMem(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 60; trial++ {
		b := make([]byte, rng.IntN(100))
		rare := 1 + rng.IntN(64)
		for k := range b {
			b[k] = byte(rng.IntN(2)) | byte(rng.IntN(32))<<2
			if rng.IntN(rare) == 0 {
				b[k] |= []byte{0x02, 0x80, 0x82}[rng.IntN(3)]
			}
		}
		for i := 0; i <= len(b); i++ {
			for n := 0; n <= len(b)-i+1; n++ {
				wantI, wantM, wantStores := i, 0, uint64(0)
				for wantM < n && wantI < len(b) && b[wantI]&0x82 == 0 {
					wantStores += uint64(b[wantI] & 1)
					wantI++
					wantM++
				}
				gotI, gotM, gotStores := countMem(b, i, n)
				if gotI != wantI || gotM != wantM || gotStores != wantStores {
					t.Fatalf("countMem(%x, %d, %d) = (%d, %d, %d), want (%d, %d, %d)",
						b, i, n, gotI, gotM, gotStores, wantI, wantM, wantStores)
				}
			}
		}
	}
}

// TestNextBatchProjectSourceAfterCountedRun: in one block, PID 1 runs
// without a source, PID 2 runs, and PID 1 runs again with a source
// registration in the middle. The reader would count PID 1's first run
// when it reaches it, but the later source keeps PID 1 whole in both
// runs. PID 2 is counted: its sink checks are delivered with
// ProjectedRange and its loads and stores reported as one count.
func TestNextBatchProjectSourceAfterCountedRun(t *testing.T) {
	var evs []cpu.Event
	seq := map[uint32]uint64{}
	add := func(kind cpu.EventKind, pid, start uint32, tag int) {
		seq[pid] += 3
		evs = append(evs, cpu.Event{Kind: kind, PID: pid, Seq: seq[pid], Range: mem.Range{Start: start, End: start + 4}, Tag: tag})
	}
	run := func(pid uint32) {
		for i := range 20 {
			add(cpu.EventKind(i%3%2), pid, 0x1000+uint32(8*i), 0)
		}
		add(cpu.EvSinkCheck, pid, 0x1000, int(pid))
	}
	run(1)
	run(2)
	run(1)
	add(cpu.EvSourceRegister, 1, 0x9000, 0)
	run(1)
	run(2)
	r, err := NewReader(bytes.NewReader(encodeFormat(t, &Recorder{Events: evs}, FormatV2)))
	if err != nil {
		t.Fatal(err)
	}
	rec := &countRecorder{r: r, quiet: func(uint32) bool { return true }, counts: map[blockPID]memCount{}}
	var got []cpu.Event
	for dst := make([]cpu.Event, 16); ; {
		n, err := r.NextBatchProject(dst, nil, rec)
		got = append(got, dst[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var want []cpu.Event
	var pid2 memCount
	for _, ev := range evs {
		if ev.PID == 2 {
			switch ev.Kind {
			case cpu.EvLoad:
				pid2.loads++
				continue
			case cpu.EvStore:
				pid2.stores++
				continue
			}
			ev.Range = ProjectedRange
		}
		want = append(want, ev)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("projected read delivered %d events, want %d:\n%+v\nwant\n%+v", len(got), len(want), got, want)
	}
	wantCounts := map[blockPID]memCount{{uint64(len(evs)), 2}: pid2}
	if !maps.Equal(rec.counts, wantCounts) {
		t.Fatalf("counts %+v, want %+v", rec.counts, wantCounts)
	}
}

// quietTrace is uniformTrace with every source registration turned into
// a load, so a projected read keeps no PID whole for its sources.
func quietTrace(n int) *Recorder {
	r := uniformTrace(n)
	for i := range r.Events {
		if r.Events[i].Kind == cpu.EvSourceRegister {
			r.Events[i].Kind = cpu.EvLoad
		}
	}
	return r
}

// evenPIDs keeps the even PIDs: a 2-worker shard's share.
func evenPIDs(pid uint32) bool { return pid%2 == 0 }

// quietAll lets a projected read count every kept PID, and drops the
// counts.
type quietAll struct{}

func (quietAll) Quiet(uint32) bool            { return true }
func (quietAll) Count(uint32, uint64, uint64) {}

// TestV2NextBatchAllocationFree is the v2 steady-state gate: after the
// first blocks size the scratch buffers, batched decode of a uniform
// stream allocates nothing — including across block boundaries, including
// a filtered read that keeps half the PIDs and steps over the other
// half's runs, and including a projected read of those PIDs, both where
// it counts them and where their source registrations keep them whole.
func TestV2NextBatchAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rec    func(n int) *Recorder
		blocks int
		keep   func(pid uint32) bool
		proj   Projector
	}{
		{"plain", uniformTrace, 40, nil, nil},
		// A filtered call returns at most a block's kept events, so
		// 300 calls need more blocks.
		{"keep-half", uniformTrace, 80, evenPIDs, nil},
		// A counted block delivers only its sink checks.
		{"project-half", quietTrace, 300, evenPIDs, quietAll{}},
		{"project-half-sources", uniformTrace, 80, evenPIDs, quietAll{}},
	} {
		orig := tc.rec(tc.blocks * DefaultBlockEvents)
		data := encodeFormat(t, orig, FormatV2)
		sr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]cpu.Event, 256)
		read := func() {
			var err error
			if tc.proj != nil {
				_, err = sr.NextBatchProject(dst, tc.keep, tc.proj)
			} else {
				_, err = sr.NextBatchKeep(dst, tc.keep)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		// Warm through two full blocks so every scratch is at steady size.
		for sr.Offset() < 2*DefaultBlockEvents {
			read()
		}
		if n := testing.AllocsPerRun(300, read); n != 0 {
			t.Errorf("%s: v2 NextBatch allocates %v times per call", tc.name, n)
		}
		// AllocsPerRun divides by the runs in integers, so a run of one
		// call cannot see an allocation made once per block; 16 calls
		// span at least one block.
		if n := testing.AllocsPerRun(10, func() {
			for range 16 {
				read()
			}
		}); n != 0 {
			t.Errorf("%s: v2 NextBatch allocates %v times per 16 calls", tc.name, n)
		}
	}
}

// scanTrace is a clean trace shaped like the scan workload's: 64 PIDs
// switching every 64 events, no source registrations, a sink check in
// about one event of 512, and 1–16-byte ranges scattered over a 64 KiB
// arena, so that most range-start deltas take three bytes.
func scanTrace(n int) *Recorder {
	rng := rand.New(rand.NewPCG(2101, 64))
	r := NewRecorder(n)
	var seq [65]uint64
	sinks := 0
	for i := 0; i < n; i++ {
		pid := uint32(1 + (i/64)%64)
		seq[pid] += 1 + rng.Uint64N(4)
		ev := cpu.Event{Kind: cpu.EventKind(rng.IntN(2)), PID: pid, Seq: seq[pid]}
		if rng.IntN(512) == 0 {
			sinks++
			ev.Kind, ev.Tag = cpu.EvSinkCheck, sinks
		}
		start := uint32(0x10000 + rng.IntN(1<<16))
		ev.Range = mem.Range{Start: start, End: start + uint32(rng.IntN(16))}
		r.Event(ev)
	}
	return r
}

// BenchmarkReaderV2NextBatch measures v2 batched decode against the same
// uniform corpus serialized as v1, for a like-for-like events/sec
// comparison (`go test -bench V2NextBatch -benchtime ...`). The
// keep-half and project-half cases read a scan-shaped corpus as one of
// two DrainTrace shards does, keeping half the PIDs whole or counting
// them; their ns/event is per corpus event.
func BenchmarkReaderV2NextBatch(b *testing.B) {
	orig := uniformTrace(100000)
	for _, f := range []Format{FormatV1, FormatV2} {
		var buf bytes.Buffer
		if _, err := orig.WriteToFormat(&buf, f); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(f.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			dst := make([]cpu.Event, 1024)
			for i := 0; i < b.N; i++ {
				sr, err := NewReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				for {
					_, err := sr.NextBatch(dst)
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	scan := encodeFormat(b, scanTrace(1<<20), FormatV2)
	for _, tc := range []struct {
		name string
		proj Projector
	}{
		{"keep-half", nil},
		{"project-half", quietAll{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(scan)))
			dst := make([]cpu.Event, 256)
			var events uint64
			for i := 0; i < b.N; i++ {
				sr, err := NewReader(bytes.NewReader(scan))
				if err != nil {
					b.Fatal(err)
				}
				for err == nil {
					_, err = sr.NextBatchProject(dst, evenPIDs, tc.proj)
				}
				if err != io.EOF {
					b.Fatal(err)
				}
				events += sr.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
