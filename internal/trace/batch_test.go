package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/cpu"
)

// drainBatch pulls the whole stream through NextBatch with the given
// buffer size, returning the events delivered before any error.
func drainBatch(r *Reader, batch int) ([]cpu.Event, error) {
	var out []cpu.Event
	buf := make([]cpu.Event, batch)
	for {
		n, err := r.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// TestNextBatchEquivalence proves NextBatch is observationally identical
// to a Next loop across batch sizes, including sizes that do not divide
// the event count.
func TestNextBatchEquivalence(t *testing.T) {
	orig := randomTrace(5000, 31)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 256, 4096, 8192} {
		sr, err := NewReader(bytes.NewReader(buf.Bytes()))
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
				t.Fatalf("batch=%d: event %d differs: %+v vs %+v", batch, i, got[i], orig.Events[i])
			}
		}
		if sr.Offset() != uint64(orig.Len()) {
			t.Fatalf("batch=%d: offset %d after drain", batch, sr.Offset())
		}
		// io.EOF must be sticky and carry no events.
		if n, err := sr.NextBatch(make([]cpu.Event, 4)); n != 0 || err != io.EOF {
			t.Fatalf("batch=%d: NextBatch after drain = (%d, %v)", batch, n, err)
		}
	}
}

// TestNextBatchTruncationParity cuts the stream at every byte boundary and
// checks the batch path delivers exactly the events a Next loop delivers,
// then fails with io.ErrUnexpectedEOF just as Next does — the pipeline's
// chaos matrix relies on the two drain paths being indistinguishable.
func TestNextBatchTruncationParity(t *testing.T) {
	orig := randomTrace(40, 7)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := HeaderSize; cut < len(full); cut += 5 {
		data := full[:cut]
		nr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("cut=%d: header rejected: %v", cut, err)
		}
		var nextEvents []cpu.Event
		var nextErr error
		for {
			ev, err := nr.Next()
			if err != nil {
				nextErr = err
				break
			}
			nextEvents = append(nextEvents, ev)
		}

		br, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		batchEvents, batchErr := drainBatch(br, 16)

		if len(batchEvents) != len(nextEvents) {
			t.Fatalf("cut=%d: batch delivered %d events, Next %d", cut, len(batchEvents), len(nextEvents))
		}
		if nextErr == io.EOF {
			if batchErr != nil {
				t.Fatalf("cut=%d: Next drained cleanly, batch failed: %v", cut, batchErr)
			}
			continue
		}
		if batchErr == nil {
			t.Fatalf("cut=%d: Next failed (%v), batch drained cleanly", cut, nextErr)
		}
		if !errors.Is(batchErr, io.ErrUnexpectedEOF) || !errors.Is(nextErr, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: errors diverge: next=%v batch=%v", cut, nextErr, batchErr)
		}
		if batchErr.Error() != nextErr.Error() {
			t.Fatalf("cut=%d: error text diverges: next=%q batch=%q", cut, nextErr, batchErr)
		}
	}
}

// TestNextBatchCorruptRecord checks a corrupt record surfaces at the same
// index with the prior events intact.
func TestNextBatchCorruptRecord(t *testing.T) {
	orig := randomTrace(20, 13)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[HeaderSize+7*EventSize] = 0xff // kind byte of event 7
	sr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainBatch(sr, 5)
	if err == nil {
		t.Fatal("corrupt kind accepted")
	}
	if len(got) != 7 {
		t.Fatalf("delivered %d events before the corrupt record, want 7", len(got))
	}
	if sr.Offset() != 7 {
		t.Fatalf("offset %d after corrupt record, want 7", sr.Offset())
	}
}

// TestNextBatchZeroAndOversized covers the degenerate buffer shapes: an
// empty dst is a no-op, and a dst larger than the remaining stream (or the
// per-call cap) returns a short count, not an error.
func TestNextBatchZeroAndOversized(t *testing.T) {
	orig := randomTrace(10, 3)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sr.NextBatch(nil); n != 0 || err != nil {
		t.Fatalf("NextBatch(nil) = (%d, %v)", n, err)
	}
	big := make([]cpu.Event, 64)
	n, err := sr.NextBatch(big)
	if err != nil || n != 10 {
		t.Fatalf("oversized NextBatch = (%d, %v), want (10, nil)", n, err)
	}
	if n, err := sr.NextBatch(big); n != 0 || err != io.EOF {
		t.Fatalf("NextBatch at end = (%d, %v), want (0, io.EOF)", n, err)
	}
}

// TestSkipChunked drives Skip across a stream long enough to need several
// bounded Discard chunks (the 32-bit overflow fix), checking the resume
// position still lands exactly.
func TestSkipChunked(t *testing.T) {
	const total = 3*(1<<16) + 123 // > 3 Discard chunks
	rec := NewRecorder(total)
	for i := 0; i < total; i++ {
		rec.Event(cpu.Event{Kind: cpu.EvStore, PID: 1, Seq: uint64(i + 1), Tag: i})
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	const skip = total - 2
	if err := sr.Skip(skip); err != nil {
		t.Fatal(err)
	}
	if sr.Offset() != skip {
		t.Fatalf("offset %d after skip, want %d", sr.Offset(), skip)
	}
	ev, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Tag != skip {
		t.Fatalf("event after skip has tag %d, want %d", ev.Tag, skip)
	}
	// Skipping into a physically short stream is still a truncation.
	short, err := NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()-40]))
	if err != nil {
		t.Fatal(err)
	}
	if err := short.Skip(total); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Skip past a cut = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestNextBatchAllocationFree is the alloc gate for the batch decoder:
// after the first call sizes the scratch buffer, steady-state batch
// decoding must not allocate — plain, and filtered by a predicate that
// keeps half the PIDs.
func TestNextBatchAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  *Recorder
		keep func(pid uint32) bool
	}{
		{"plain", randomTrace(120000, 43), nil},
		{"keep-half", uniformTrace(120000), func(pid uint32) bool { return pid%2 == 0 }},
	} {
		var buf bytes.Buffer
		if _, err := tc.rec.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sr, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]cpu.Event, 256)
		if _, err := sr.NextBatchKeep(dst, tc.keep); err != nil { // sizes the scratch buffer
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(300, func() {
			if _, err := sr.NextBatchKeep(dst, tc.keep); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: NextBatch allocates %v times per call", tc.name, n)
		}
	}
}

// BenchmarkReaderNextBatch measures batched decode throughput against the
// one-record-per-call Next loop on the same serialized trace.
func BenchmarkReaderNextBatch(b *testing.B) {
	orig := randomTrace(100000, 47)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("next", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			sr, err := NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := sr.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, batch := range []int{64, 256, 4096} {
		b.Run("batch="+itoa(batch), func(b *testing.B) {
			dst := make([]cpu.Event, batch)
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				sr, err := NewReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := sr.NextBatch(dst); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d [8]byte
	i := len(d)
	for n > 0 {
		i--
		d[i] = byte('0' + n%10)
		n /= 10
	}
	return string(d[i:])
}
