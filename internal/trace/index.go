package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Block index — what keeps segment-planned ingestion arithmetic on the
// compressed format. PIFTTRC1 needs no index at all (event i lives at
// HeaderSize + i*EventSize); PIFTTRC3 blocks are variable-length, so the
// planner instead walks the block headers once with O(#blocks) tiny
// ReadAts — no payload is read, checksummed, or decoded — and records
// (first event, count, byte offset, payload length) per block. With that
// table, planning a range and positioning a per-segment reader are again
// pure arithmetic: boundaries snap to block firsts and a reader's byte
// range is a lookup. The walk also validates the chain (contiguous first
// indexes, bounded counts and lengths, coverage of the declared total),
// so a spliced or reordered file fails at plan time with the same error
// taxonomy decode would produce.

type blockMeta struct {
	first uint64 // absolute index of the block's first event
	off   int64  // byte offset of the block header in the stream
	count uint32 // events in the block
	clen  uint32 // payload bytes
}

// Index describes the physical layout of one serialized trace: its
// format, declared event count, and (for v2) the block table. It is the
// entry point for shard-owned ingestion — build it once per trace, then
// plan segments and open per-segment readers against the same io.ReaderAt.
type Index struct {
	format Format
	count  uint64
	blocks []blockMeta // nil for v1
}

// Format reports the trace's wire format.
func (idx *Index) Format() Format { return idx.format }

// Count returns the declared event count from the trace header.
func (idx *Index) Count() uint64 { return idx.count }

// Blocks reports how many blocks the trace has (0 for v1).
func (idx *Index) Blocks() int { return len(idx.blocks) }

// BlockInfo describes one v2 block's physical layout, for tools that
// reason about block boundaries (tracestat, tests).
type BlockInfo struct {
	First   uint64 // absolute index of the block's first event
	Offset  int64  // byte offset of the block header in the stream
	Count   uint32 // events in the block
	Payload uint32 // compressed payload bytes
}

// Block returns block i's layout; i must be in [0, Blocks()).
func (idx *Index) Block(i int) BlockInfo {
	b := idx.blocks[i]
	return BlockInfo{First: b.first, Offset: b.off, Count: b.count, Payload: b.clen}
}

// LoadIndex sniffs the trace header in ra and builds the Index. For a v1
// trace it reads only the header; for v2 it additionally walks and
// validates the block headers. The error taxonomy matches NewReader:
// ErrBadMagic, ErrTooLarge, ErrTruncated on a stream cut short,
// ErrCorrupt on an impossible block chain.
func LoadIndex(ra io.ReaderAt) (*Index, error) {
	var hdr [HeaderSize]byte
	if _, err := ra.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", truncated(err))
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	const sanityCap = 1 << 31
	switch [8]byte(hdr[:8]) {
	case traceMagic:
		if count > sanityCap {
			return nil, fmt.Errorf("trace: %w: %d", ErrTooLarge, count)
		}
		return &Index{format: FormatV1, count: count}, nil
	case traceMagicV2:
		if count > sanityCap {
			return nil, fmt.Errorf("trace: %w: %d", ErrTooLarge, count)
		}
		idx := &Index{format: FormatV2, count: count}
		off := int64(HeaderSize)
		var next uint64
		for next < count {
			var bh [blockHeaderSize]byte
			if _, err := ra.ReadAt(bh[:], off); err != nil {
				return nil, fmt.Errorf("trace: event %d: block header: %w", next, truncated(err))
			}
			first := binary.LittleEndian.Uint64(bh[0:])
			bcount := binary.LittleEndian.Uint32(bh[8:])
			clen := binary.LittleEndian.Uint32(bh[12:])
			if first != next {
				return nil, fmt.Errorf("trace: event %d: %w: block claims first event %d, want %d", next, ErrCorrupt, first, next)
			}
			if bcount == 0 || bcount > maxBlockEvents || first+uint64(bcount) > count {
				return nil, fmt.Errorf("trace: event %d: %w: block claims %d events at %d of %d", next, ErrCorrupt, bcount, first, count)
			}
			if clen > maxBlockBytes {
				return nil, fmt.Errorf("trace: event %d: %w: block claims %d payload bytes", next, ErrTooLarge, clen)
			}
			idx.blocks = append(idx.blocks, blockMeta{first: first, off: off, count: bcount, clen: clen})
			off += blockHeaderSize + int64(clen)
			next = first + uint64(bcount)
		}
		return idx, nil
	}
	return nil, fmt.Errorf("trace: %w: bad magic %q", ErrBadMagic, hdr[:8])
}

// PlanRange splits [first, first+count) into at most `readers` contiguous
// segments, exactly like the package-level PlanRange but aware of the
// trace's physical layout. For v1 it defers to the batch-aligned
// arithmetic unchanged. For v2, interior boundaries snap to block firsts
// (the smallest block start at or after the balanced ideal split), so
// every reader but the first starts on a block boundary and never decodes
// a discarded prefix; `batch` does not constrain v2 boundaries.
func (idx *Index) PlanRange(first, count uint64, readers, batch int) []Segment {
	if idx.format == FormatV1 {
		return PlanRange(first, count, readers, batch)
	}
	if count == 0 {
		return nil
	}
	if readers < 1 {
		readers = 1
	}
	end := first + count
	segs := make([]Segment, 0, readers)
	at := first
	for i := 1; i < readers; i++ {
		ideal := first + count*uint64(i)/uint64(readers)
		j := sort.Search(len(idx.blocks), func(j int) bool { return idx.blocks[j].first >= ideal })
		var boundary uint64
		if j < len(idx.blocks) {
			boundary = idx.blocks[j].first
		} else {
			boundary = end
		}
		if boundary <= at {
			continue
		}
		if boundary >= end {
			break
		}
		segs = append(segs, Segment{First: at, Count: boundary - at})
		at = boundary
	}
	return append(segs, Segment{First: at, Count: end - at})
}

// PlanSegments plans the whole trace: PlanRange from event 0.
func (idx *Index) PlanSegments(readers, batch int) []Segment {
	return idx.PlanRange(0, idx.count, readers, batch)
}

// SegmentReader opens a Reader over one planned segment of the trace in
// ra, positioned at seg.First and reporting absolute offsets, exactly
// like NewSegmentReader does for v1. For v2 the reader's section spans
// the block containing seg.First through the block containing the
// segment's last event; a segment starting mid-block decodes that block
// and discards the prefix, one ending mid-block stops at its logical end.
func (idx *Index) SegmentReader(ra io.ReaderAt, seg Segment) *Reader {
	if idx.format == FormatV1 {
		return NewSegmentReader(ra, seg)
	}
	if seg.Count == 0 {
		return &Reader{
			br:    bufio.NewReader(io.NewSectionReader(ra, 0, 0)),
			v2:    true,
			count: seg.First,
			read:  seg.First,
			total: idx.count,
		}
	}
	bi := sort.Search(len(idx.blocks), func(j int) bool { return idx.blocks[j].first > seg.First }) - 1
	li := sort.Search(len(idx.blocks), func(j int) bool { return idx.blocks[j].first > seg.End()-1 }) - 1
	fb, lb := idx.blocks[bi], idx.blocks[li]
	endOff := lb.off + blockHeaderSize + int64(lb.clen)
	return &Reader{
		br:        bufio.NewReader(io.NewSectionReader(ra, fb.off, endOff-fb.off)),
		v2:        true,
		count:     seg.End(),
		read:      seg.First,
		total:     idx.count,
		nextBlock: fb.first,
	}
}
