package trace

import (
	"bufio"
	"io"
)

// Segment planning — the ingest side of the shard-owned pipeline. The
// PIFTTRC1 format is fixed-stride (HeaderSize + i*EventSize locates event
// i without decoding), so a trace can be pre-split into contiguous event
// ranges by pure arithmetic: no indexing pass, no scan. Each pipeline
// reader then owns one segment end-to-end — its own *Reader, its own
// decode buffer, its own byte range of the backing file — which is what
// removes the single shared dispatcher from the hot path.

// Segment is a half-open range of events [First, First+Count) of a
// serialized trace. Segments produced by PlanRange are contiguous and
// non-overlapping: concatenated in order they cover the planned range
// exactly once.
type Segment struct {
	First uint64 // absolute index of the segment's first event
	Count uint64 // number of events in the segment
}

// End returns the absolute index one past the segment's last event.
func (s Segment) End() uint64 { return s.First + s.Count }

// PlanRange splits the event range [first, first+count) into at most
// `readers` contiguous segments. Interior boundaries land on multiples of
// `batch` events from `first`, so every segment but the last holds whole
// batches — a reader never decodes a partial batch except at the end of
// the range. Counts are balanced to within one batch. Fewer than
// `readers` segments come back when the range has fewer batches than
// readers; an empty range plans to nil.
func PlanRange(first, count uint64, readers, batch int) []Segment {
	if count == 0 {
		return nil
	}
	if readers < 1 {
		readers = 1
	}
	if batch < 1 {
		batch = 1
	}
	b := uint64(batch)
	batches := (count + b - 1) / b
	n := uint64(readers)
	if n > batches {
		n = batches
	}
	per, extra := batches/n, batches%n
	segs := make([]Segment, 0, n)
	at := first
	for i := uint64(0); i < n; i++ {
		take := per
		if i < extra {
			take++
		}
		c := take * b
		if at+c > first+count { // last segment: the trace's ragged tail
			c = first + count - at
		}
		segs = append(segs, Segment{First: at, Count: c})
		at += c
	}
	return segs
}

// NewSegmentReader returns a Reader over one planned segment of the
// serialized trace in ra. The reader is positioned at the segment's first
// event and reports absolute positions: Offset() starts at seg.First,
// event indices in errors are absolute, and io.EOF arrives exactly at
// seg.End() — so per-segment readers compose with checkpoint offsets and
// fault reports exactly like a whole-trace Reader that was Skip()ed to
// seg.First. The segment is trusted to come from PlanRange over a
// validated header (LoadIndex); a segment beyond the physical end of ra
// surfaces as a truncation at the first short read.
func NewSegmentReader(ra io.ReaderAt, seg Segment) *Reader {
	sec := io.NewSectionReader(ra, int64(HeaderSize)+int64(seg.First)*EventSize, int64(seg.Count)*EventSize)
	return &Reader{
		br:    bufio.NewReader(sec),
		count: seg.End(),
		read:  seg.First,
	}
}
