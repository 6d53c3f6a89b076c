package trace_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// TestSegmentPlannerProperties is the planner's invariant sweep: for 100
// seeded synthetic traces with random sizes, reader counts, and batch
// sizes, the planned segments must (1) concatenate to cover every event
// exactly once in order, (2) place every interior boundary on a batch
// boundary — which, the format being fixed-stride, is also a record
// boundary in bytes — and (3) yield per-segment Readers whose Offset
// reports the same absolute positions a whole-trace Reader reports, event
// for event.
func TestSegmentPlannerProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 100; i++ {
		events := 1 + rng.Intn(5000)
		readers := 1 + rng.Intn(12)
		batch := 1 + rng.Intn(300)
		spec := tracegen.Spec{Seed: int64(i), Events: events, PIDs: 1 + rng.Intn(16), Quantum: 1 + rng.Intn(128)}
		rec := tracegen.Generate(spec)
		var wire bytes.Buffer
		if _, err := rec.WriteTo(&wire); err != nil {
			t.Fatal(err)
		}
		ra := bytes.NewReader(wire.Bytes())

		idx, err := trace.LoadIndex(ra)
		if err != nil {
			t.Fatalf("case %d: LoadIndex: %v", i, err)
		}
		total := idx.Count()
		if total != uint64(events) {
			t.Fatalf("case %d: header count %d, want %d", i, total, events)
		}
		segs := idx.PlanSegments(readers, batch)
		if len(segs) == 0 || len(segs) > readers {
			t.Fatalf("case %d: planned %d segments for %d readers", i, len(segs), readers)
		}

		// (1) exact cover: contiguous, in order, no gaps or overlaps.
		at := uint64(0)
		for s, seg := range segs {
			if seg.First != at {
				t.Fatalf("case %d: segment %d starts at %d, want %d (gap or overlap)", i, s, seg.First, at)
			}
			if seg.Count == 0 {
				t.Fatalf("case %d: segment %d is empty", i, s)
			}
			// (2) interior boundaries on batch granularity.
			if s > 0 && seg.First%uint64(batch) != 0 {
				t.Fatalf("case %d: segment %d boundary %d not a multiple of batch %d", i, s, seg.First, batch)
			}
			at = seg.End()
		}
		if at != total {
			t.Fatalf("case %d: segments cover %d events, trace has %d", i, at, total)
		}

		// (3) per-segment readers report absolute offsets and decode the
		// same events as the unsplit stream.
		whole, err := trace.NewReader(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for s, seg := range segs {
			r := idx.SegmentReader(ra, seg)
			if got := r.Offset(); got != seg.First {
				t.Fatalf("case %d: segment %d initial Offset %d, want %d", i, s, got, seg.First)
			}
			if got := r.Remaining(); got != seg.Count {
				t.Fatalf("case %d: segment %d Remaining %d, want %d", i, s, got, seg.Count)
			}
			for {
				if whole.Offset() != r.Offset() {
					t.Fatalf("case %d: segment %d offset %d diverges from whole-trace offset %d",
						i, s, r.Offset(), whole.Offset())
				}
				ev, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("case %d: segment %d at offset %d: %v", i, s, r.Offset(), err)
				}
				want, werr := whole.Next()
				if werr != nil {
					t.Fatalf("case %d: whole-trace reader failed at %d: %v", i, whole.Offset(), werr)
				}
				if ev != want {
					t.Fatalf("case %d: segment %d event %d differs from unsplit trace", i, s, r.Offset()-1)
				}
			}
			if got := r.Offset(); got != seg.End() {
				t.Fatalf("case %d: segment %d final Offset %d, want %d", i, s, got, seg.End())
			}
		}
		if _, err := whole.Next(); err != io.EOF {
			t.Fatalf("case %d: whole-trace reader not exhausted after all segments", i)
		}
	}
}

// TestSegmentReaderBatchParity pins NextBatch over a segment to the
// per-event path: same events, same absolute offsets.
func TestSegmentReaderBatchParity(t *testing.T) {
	rec := tracegen.Generate(tracegen.Spec{Seed: 5, Events: 3000, PIDs: 7})
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	ra := bytes.NewReader(wire.Bytes())
	idx, err := trace.LoadIndex(ra)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range idx.PlanSegments(4, 128) {
		r := idx.SegmentReader(ra, seg)
		buf := make([]cpu.Event, 100)
		var got []cpu.Event
		for {
			n, err := r.NextBatch(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("segment %+v: %v", seg, err)
			}
		}
		if uint64(len(got)) != seg.Count {
			t.Fatalf("segment %+v: NextBatch yielded %d events", seg, len(got))
		}
		for j, ev := range got {
			if ev != rec.Events[seg.First+uint64(j)] {
				t.Fatalf("segment %+v: event %d differs", seg, j)
			}
		}
		if r.Offset() != seg.End() {
			t.Fatalf("segment %+v: final offset %d", seg, r.Offset())
		}
	}
}

// TestSegmentReaderTruncation: a segment reaching beyond the physical end
// of the stream must classify as a truncation with an absolute event
// index, exactly like a whole-trace reader.
func TestSegmentReaderTruncation(t *testing.T) {
	rec := tracegen.Generate(tracegen.Spec{Seed: 6, Events: 1000, PIDs: 3})
	var wire bytes.Buffer
	if _, err := rec.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	cut := wire.Bytes()[:trace.HeaderSize+700*trace.EventSize+5] // mid-record of event 700
	ra := bytes.NewReader(cut)
	r := trace.NewSegmentReader(ra, trace.Segment{First: 500, Count: 500})
	n := 0
	var err error
	var ev cpu.Event
	for {
		ev, err = r.Next()
		if err != nil {
			break
		}
		_ = ev
		n++
	}
	if n != 200 {
		t.Fatalf("decoded %d events before the cut, want 200", n)
	}
	if err == io.EOF {
		t.Fatal("truncated segment reported clean EOF")
	}
	if !errors.Is(err, trace.ErrTruncated) {
		t.Fatalf("truncated segment error not classified: %v", err)
	}
}
