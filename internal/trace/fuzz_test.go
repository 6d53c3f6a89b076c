package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// hugeClaimV1 is a bare PIFTTRC1 header declaring 808 M events (the
// count field is the ASCII bytes "0000"): a decoder that trusts the claim
// before any record arrives asks for 25 GiB.
const hugeClaimV1 = "PIFTTRC1" + "0000\x00\x00\x00\x00"

// FuzzReadFrom feeds arbitrary bytes to the trace decoder: it must never
// panic, and anything it accepts must re-encode to an equivalent trace.
func FuzzReadFrom(f *testing.F) {
	good := randomTrace(5, 1)
	var buf bytes.Buffer
	if _, err := good.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("PIFTTRC1"))
	f.Add([]byte{})
	f.Add([]byte(hugeClaimV1))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := rec.WriteTo(&out); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		back, err := ReadFrom(&out)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if len(back.Events) != len(rec.Events) {
			t.Fatalf("round trip changed event count")
		}
		for i := range rec.Events {
			if back.Events[i] != rec.Events[i] {
				t.Fatalf("round trip changed event %d", i)
			}
		}
	})
}

// FuzzDecodeV2 drives the block decoder over arbitrary bytes: it must
// never panic, every failure must classify into exactly one taxonomy
// sentinel (so the server can map it to a 4xx and never a 5xx), a clean
// drain must deliver exactly the declared count, and anything accepted
// must round-trip through the v2 encoder byte-for-byte.
//
// Every input is also read filtered, twice: keeping the even PIDs and
// keeping the odd ones. A filtered read only steps over the runs it
// rejects, so damage inside a run may surface only for the reader that
// keeps it — but the two readers together must agree with the plain one.
// When the plain read succeeds, both filtered reads succeed and split its
// events by the predicate. When it fails, the earlier filtered failure has
// its sentinel and its Offset, and each filtered read starts with the
// plain read's events, filtered. Pipeline.DrainTrace's lowest-offset
// error rule rests on this.
//
// Each filtered read is then repeated projected: the same PIDs kept, and
// half of them counted when the reader may. Its events must be the
// filtered read's, minus the loads and stores of each PID it counts in a
// PIFTTRC3 block where the PID registers no source, whose sink checks
// carry ProjectedRange; each count must be those loads and stores; and it
// must end as the filtered read does, except past a failure in a range
// column, whose values a projected read does not check. DrainTrace's
// projected drain rests on this.
func FuzzDecodeV2(f *testing.F) {
	good := randomTrace(300, 3)
	var buf bytes.Buffer
	if _, err := good.WriteToFormat(&buf, FormatV2); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-3]) // mid-payload truncation
	f.Add(buf.Bytes()[:HeaderSize+blockHeaderSize-2])
	f.Add([]byte("PIFTTRC3"))
	f.Add([]byte{})
	var quiet bytes.Buffer // f.Add keeps the slice: buf's bytes must stay
	if _, err := quietTrace(300).WriteToFormat(&quiet, FormatV2); err != nil {
		f.Fatal(err)
	}
	f.Add(quiet.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !isSentinelF(err) {
				t.Fatalf("NewReader error outside the taxonomy: %v", err)
			}
			return
		}
		var events uint64
		var lastErr error
		dst := make([]cpu.Event, 37)
		rec := NewRecorder(0)
		for {
			n, err := r.NextBatch(dst)
			rec.Events = append(rec.Events, dst[:n]...)
			events += uint64(n)
			if err != nil {
				lastErr = err
				break
			}
		}
		filtered := checkFilteredReads(t, data, rec.Events, lastErr, r.Offset())
		for k := range filtered {
			checkProjectedRead(t, data, uint32(k), filtered[k])
		}
		if lastErr == io.EOF {
			if events != r.Len() {
				t.Fatalf("clean EOF after %d of %d events", events, r.Len())
			}
			if r.Format() != FormatV2 {
				return // v1 bytes are FuzzReader's concern
			}
			var out bytes.Buffer
			if _, err := rec.WriteToFormat(&out, FormatV2); err != nil {
				t.Fatalf("re-encode of accepted v2 trace failed: %v", err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				// The encoder is canonical (fixed block size, greedy
				// runs), so accepted-but-noncanonical inputs can differ;
				// they must still decode to the same events.
				back, err := ReadFrom(bytes.NewReader(out.Bytes()))
				if err != nil || len(back.Events) != len(rec.Events) {
					t.Fatalf("v2 round trip failed: %v", err)
				}
				for i := range rec.Events {
					if back.Events[i] != rec.Events[i] {
						t.Fatalf("v2 round trip changed event %d", i)
					}
				}
			}
			return
		}
		if errors.Is(lastErr, io.EOF) {
			t.Fatalf("stream died after %d of %d events with an EOF-flavored error: %v", events, r.Len(), lastErr)
		}
		if !isSentinelF(lastErr) {
			t.Fatalf("decode error outside the taxonomy: %v", lastErr)
		}
	})
}

// readResult is how one read of a fuzz input ended: the events it
// returned, the end of the PIFTTRC3 block each came from, its final error
// (io.EOF when clean), and its Offset there.
type readResult struct {
	events []cpu.Event
	blocks []uint64
	err    error
	at     uint64
}

// readAll drains a reader over data with next, batch events at a time.
func readAll(t *testing.T, data []byte, batch int, next func(r *Reader, dst []cpu.Event) (int, error)) readResult {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader accepted the bytes once, then failed: %v", err)
	}
	var res readResult
	dst := make([]cpu.Event, batch)
	for {
		n, err := next(r, dst)
		// A call serves one block's events at most.
		for range n {
			res.blocks = append(res.blocks, r.blockEnd)
		}
		res.events = append(res.events, dst[:n]...)
		if err != nil {
			res.err, res.at = err, r.Offset()
			return res
		}
	}
}

// checkFilteredReads reads data with the even-PID and the odd-PID keep
// predicates and holds them to the plain read's outcome: its events
// (plain), its final error (io.EOF when clean), and its Offset there. It
// returns the two reads.
func checkFilteredReads(t *testing.T, data []byte, plain []cpu.Event, plainErr error, plainAt uint64) [2]readResult {
	t.Helper()
	var results [2]readResult
	for k := range results {
		keep := func(pid uint32) bool { return pid%2 == uint32(k) }
		results[k] = readAll(t, data, 29, func(r *Reader, dst []cpu.Event) (int, error) {
			n, err := r.NextBatchKeep(dst, keep)
			for _, ev := range dst[:n] {
				if !keep(ev.PID) {
					t.Fatalf("pid%%2==%d read returned PID %d", k, ev.PID)
				}
			}
			return n, err
		})
	}
	// The plain events, split by the predicate: each filtered read must
	// start with its share.
	var want [2][]cpu.Event
	for _, ev := range plain {
		want[ev.PID%2] = append(want[ev.PID%2], ev)
	}
	for k, res := range results {
		if len(res.events) < len(want[k]) {
			t.Fatalf("pid%%2==%d read returned %d events, the plain read %d of its PIDs (err %v)", k, len(res.events), len(want[k]), res.err)
		}
		for i, ev := range want[k] {
			if res.events[i] != ev {
				t.Fatalf("pid%%2==%d read event %d is %+v, plain read filtered has %+v", k, i, res.events[i], ev)
			}
		}
	}
	if plainErr == io.EOF {
		for k, res := range results {
			if res.err != io.EOF || res.at != plainAt || len(res.events) != len(want[k]) {
				t.Fatalf("plain read clean at %d; pid%%2==%d read ended with %v at %d after %d of %d events",
					plainAt, k, res.err, res.at, len(res.events), len(want[k]))
			}
		}
		return results
	}
	first := -1 // the filtered read that failed at the lowest offset
	for k, res := range results {
		if res.err != io.EOF && (first < 0 || res.at < results[first].at) {
			first = k
		}
	}
	if first < 0 {
		t.Fatalf("plain read failed at %d (%v), both filtered reads ended clean", plainAt, plainErr)
	}
	got := results[first]
	if got.at != plainAt {
		t.Fatalf("earliest filtered failure at offset %d (%v), plain read failed at %d (%v)", got.at, got.err, plainAt, plainErr)
	}
	if !sameSentinel(got.err, plainErr) {
		t.Fatalf("earliest filtered failure %v, plain read %v: sentinels differ", got.err, plainErr)
	}
	return results
}

// rangeColumnFailure matches the errors of a range column: a malformed
// varint in one, or a range leaving the address space.
var rangeColumnFailure = regexp.MustCompile(`range[- ](start|length|end)`)

// blockPID names one PID's events in one PIFTTRC3 block, by the block's
// end.
type blockPID struct {
	block uint64
	pid   uint32
}

// memCount is one PID's loads and stores in one block.
type memCount struct{ loads, stores uint64 }

// countRecorder is a Projector that answers quiet by a predicate and
// files each count under the block its reader has reached.
type countRecorder struct {
	r      *Reader
	quiet  func(pid uint32) bool
	counts map[blockPID]memCount
}

func (c *countRecorder) Quiet(pid uint32) bool { return c.quiet(pid) }

func (c *countRecorder) Count(pid uint32, loads, stores uint64) {
	bp := blockPID{c.r.blockEnd, pid}
	m := c.counts[bp]
	c.counts[bp] = memCount{m.loads + loads, m.stores + stores}
}

// checkProjectedRead repeats the pid%2 == k read of data projected, the
// PIDs with pid/2 even answered quiet, and holds it to the filtered read
// filt.
func checkProjectedRead(t *testing.T, data []byte, k uint32, filt readResult) {
	t.Helper()
	keep := func(pid uint32) bool { return pid%2 == k }
	rec := &countRecorder{quiet: func(pid uint32) bool { return pid/2%2 == 0 }, counts: map[blockPID]memCount{}}
	var v2 bool
	proj := readAll(t, data, 29, func(r *Reader, dst []cpu.Event) (int, error) {
		v2, rec.r = r.Format() == FormatV2, r
		return r.NextBatchProject(dst, keep, rec)
	})
	sources := map[blockPID]bool{}
	for i, ev := range filt.events {
		if ev.Kind == cpu.EvSourceRegister {
			sources[blockPID{filt.blocks[i], ev.PID}] = true
		}
	}
	// The filtered read's events, counted where the projected read counts.
	var want []cpu.Event
	counts := map[blockPID]memCount{}
	for i, ev := range filt.events {
		bp := blockPID{filt.blocks[i], ev.PID}
		if v2 && rec.quiet(ev.PID) && !sources[bp] {
			m := counts[bp]
			switch ev.Kind {
			case cpu.EvLoad:
				m.loads++
			case cpu.EvStore:
				m.stores++
			default:
				ev.Range = ProjectedRange
				want = append(want, ev)
			}
			counts[bp] = m
			continue
		}
		want = append(want, ev)
	}
	for i, w := range want[:min(len(want), len(proj.events))] {
		if proj.events[i] != w {
			t.Fatalf("pid%%2==%d projected read event %d is %+v, want %+v", k, i, proj.events[i], w)
		}
	}
	// Every block the filtered read got through ends at or before its
	// final Offset; the projected read may count past a range-column
	// failure.
	for bp, m := range rec.counts {
		if bp.block <= filt.at && counts[bp] != m {
			t.Fatalf("pid%%2==%d projected read counted %+v of PID %d in the block ending at %d, the filtered read holds %+v",
				k, m, bp.pid, bp.block, counts[bp])
		}
	}
	for bp, m := range counts {
		if m != (memCount{}) && rec.counts[bp] != m {
			t.Fatalf("pid%%2==%d projected read counted %+v of PID %d in the block ending at %d, the filtered read holds %+v",
				k, rec.counts[bp], bp.pid, bp.block, m)
		}
	}
	switch {
	case filt.err == io.EOF:
		if proj.err != io.EOF || proj.at != filt.at || len(proj.events) != len(want) {
			t.Fatalf("pid%%2==%d filtered read clean at %d; projected read ended with %v at %d after %d of %d events",
				k, filt.at, proj.err, proj.at, len(proj.events), len(want))
		}
	case proj.err != io.EOF && proj.at == filt.at:
		if !sameSentinel(proj.err, filt.err) || len(proj.events) != len(want) {
			t.Fatalf("pid%%2==%d at %d: projected read failed with %v after %d events, filtered read with %v after %d",
				k, filt.at, proj.err, len(proj.events), filt.err, len(want))
		}
	case proj.err == io.EOF || proj.at > filt.at:
		if !rangeColumnFailure.MatchString(filt.err.Error()) || len(proj.events) < len(want) {
			t.Fatalf("pid%%2==%d projected read ran past the filtered read's failure at %d (%v) to %v at %d",
				k, filt.at, filt.err, proj.err, proj.at)
		}
	default:
		t.Fatalf("pid%%2==%d projected read failed at %d (%v), before the filtered read's failure at %d (%v)",
			k, proj.at, proj.err, filt.at, filt.err)
	}
}

// sameSentinel reports whether a and b carry the same taxonomy
// sentinels.
func sameSentinel(a, b error) bool {
	for _, s := range []error{ErrTruncated, ErrCorrupt, ErrBadMagic, ErrTooLarge} {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return true
}

// isSentinelF mirrors the taxonomy test helper for fuzzing: exactly one
// of the four sentinels.
func isSentinelF(err error) bool {
	n := 0
	for _, s := range []error{ErrTruncated, ErrCorrupt, ErrBadMagic, ErrTooLarge} {
		if errors.Is(err, s) {
			n++
		}
	}
	return n == 1
}

// FuzzReader drives the streaming decoder over arbitrary bytes and checks
// the error taxonomy: no panic; bare io.EOF if and only if every declared
// event was decoded; a stream that runs dry early always reports
// io.ErrUnexpectedEOF and never satisfies errors.Is(err, io.EOF); and the
// streaming path agrees event-for-event with the materializing ReadFrom.
func FuzzReader(f *testing.F) {
	good := randomTrace(5, 2)
	var buf bytes.Buffer
	if _, err := good.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-3]) // mid-record truncation
	f.Add(buf.Bytes()[:12])          // header truncation
	f.Add([]byte("PIFTTRC1"))
	f.Add([]byte{})
	f.Add([]byte(hugeClaimV1))
	// A PIFTTRC3 header and a block header that claims the wrong first
	// event: corrupt, not truncated, though it is shorter than the 25
	// bytes per event a v1 stream of that count would need.
	f.Add([]byte("PIFTTRC30000\x00\x00\x00\x00" + strings.Repeat("0", 24)))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("NewReader leaked bare io.EOF: %v", err)
			}
			// The two paths must agree on rejection.
			if _, err2 := ReadFrom(bytes.NewReader(data)); err2 == nil {
				t.Fatalf("ReadFrom accepted what NewReader rejected: %v", err)
			}
			return
		}
		var events int
		var lastErr error
		for {
			_, err := r.Next()
			if err != nil {
				lastErr = err
				break
			}
			events++
		}
		clean := uint64(events) == r.Len()
		if clean {
			if lastErr != io.EOF {
				t.Fatalf("clean drain of %d events ended with %v, want io.EOF", events, lastErr)
			}
		} else if errors.Is(lastErr, io.EOF) {
			t.Fatalf("stream died after %d of %d events with an EOF-flavored error: %v",
				events, r.Len(), lastErr)
		}
		// Truncation (as opposed to corruption) must carry
		// ErrUnexpectedEOF. The size arithmetic is PIFTTRC1's fixed
		// stride; FuzzDecodeV2 holds PIFTTRC3 streams to the taxonomy.
		if !clean && r.Format() == FormatV1 && uint64(len(data)) < 16+r.Len()*eventWireSize &&
			!errors.Is(lastErr, io.ErrUnexpectedEOF) {
			// Short input can still fail on a corrupt record before running
			// dry; only flag errors produced at the point of exhaustion.
			if 16+uint64(events+1)*eventWireSize > uint64(len(data)) {
				t.Fatalf("ran dry after %d events but error is %v, not ErrUnexpectedEOF",
					events, lastErr)
			}
		}
		// Streaming and materializing decoders agree.
		rec, err2 := ReadFrom(bytes.NewReader(data))
		if clean != (err2 == nil) {
			t.Fatalf("Reader clean=%v but ReadFrom err=%v", clean, err2)
		}
		if clean && len(rec.Events) != events {
			t.Fatalf("Reader decoded %d events, ReadFrom %d", events, len(rec.Events))
		}
	})
}

// FuzzRoundTripV2 encodes arbitrary events in the compressed format and
// requires every one back unchanged: kinds 0–3, any PID, seq and start,
// lengths up to the address space's edge, and tags anywhere in int32.
// Each event takes 25 bytes of the input in PIFTTRC1's record layout,
// its kind masked to two bits and its length clamped to the edge, so a
// v1 trace body is a seed. The events go through WriteToFormat and
// ReadFrom, and through blocks of 1 to 16 events (blk) read with
// NextBatchKeep, whole and keeping the even PIDs.
func FuzzRoundTripV2(f *testing.F) {
	for _, rec := range []*Recorder{randomTrace(40, 5), uniformTrace(100)} {
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(6), buf.Bytes()[HeaderSize:])
	}
	f.Fuzz(func(t *testing.T, blk uint8, data []byte) {
		rec := NewRecorder(len(data) / eventWireSize)
		for ; len(data) >= eventWireSize; data = data[eventWireSize:] {
			start := binary.LittleEndian.Uint32(data[13:])
			rec.Event(cpu.Event{
				Kind:  cpu.EventKind(data[0] & 3),
				PID:   binary.LittleEndian.Uint32(data[1:]),
				Seq:   binary.LittleEndian.Uint64(data[5:]),
				Range: mem.Range{Start: start, End: start + min(binary.LittleEndian.Uint32(data[17:]), math.MaxUint32-start)},
				Tag:   int(int32(binary.LittleEndian.Uint32(data[21:]))),
			})
		}
		var whole bytes.Buffer
		if _, err := rec.WriteToFormat(&whole, FormatV2); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrom(bytes.NewReader(whole.Bytes()))
		if err != nil || !slices.Equal(back.Events, rec.Events) {
			t.Fatalf("WriteToFormat + ReadFrom: events differ (%v)", err)
		}
		var blocks bytes.Buffer
		bw := NewBlockWriter(&blocks, uint64(rec.Len()), int(blk%16)+1)
		for _, ev := range rec.Events {
			if err := bw.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		for _, keep := range []func(uint32) bool{nil, func(pid uint32) bool { return pid%2 == 0 }} {
			got := readAll(t, blocks.Bytes(), 7, func(r *Reader, dst []cpu.Event) (int, error) { return r.NextBatchKeep(dst, keep) })
			want := slices.DeleteFunc(slices.Clone(rec.Events), func(ev cpu.Event) bool { return keep != nil && !keep(ev.PID) })
			if got.err != io.EOF || !slices.Equal(got.events, want) {
				t.Fatalf("blocks of %d, NextBatchKeep: events differ (%v)", blk%16+1, got.err)
			}
		}
	})
}
