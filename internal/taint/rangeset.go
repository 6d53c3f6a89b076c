// Package taint provides the set-of-address-ranges representation shared by
// the PIFT tracker (internal/core) and the exact DIFT baseline
// (internal/dift).
//
// The paper's tracked state is R = {r1..rn}, a set of tainted inclusive
// address ranges (Algorithm 1). RangeSet keeps R normalized — sorted,
// non-overlapping, with adjacent ranges coalesced — so that "number of
// distinct ranges" (Figures 17 and 19) and "size of tainted addresses"
// (Figures 14, 15, 18) are well-defined metrics.
//
// Mutations are in place: Add and Remove shift the backing slice within
// its capacity instead of building a new one, so the steady-state event
// loop — where the set's range count oscillates around a stable working
// size — performs no allocations. Both return the byte and range-count
// deltas they applied, which lets callers (core.IdealStore) maintain
// cross-set aggregates incrementally instead of rescanning every set.
package taint

import (
	"fmt"
	"strings"

	"repro/internal/mem"
)

// RangeSet is a normalized set of inclusive address ranges. The zero value
// is an empty set ready to use. RangeSet is not safe for concurrent use:
// even read-only queries update the internal search cursors.
type RangeSet struct {
	// ranges is sorted by Start; entries neither overlap nor touch.
	ranges []mem.Range
	bytes  uint64
	// look and mut hold the last search answer of each of the set's two
	// access streams: look for the lookups (Overlaps, Contains,
	// IntersectBytes), mut for the mutations (Add, Remove). Algorithm 1
	// looks up on loads and mutates on stores, and a copy loop's loads
	// and stores walk different buffers (the ldrh source and strh
	// destination of Fig. 1), so one shared index would be dragged back
	// and forth between them. Each stream on its own is local (§5.1), so
	// its cursor usually verifies in two comparisons and the binary
	// search is skipped. Only search writes a cursor: a mutation leaves
	// mut at its own answer from before the splice, which stays right
	// for a repeated store to the same slot.
	look, mut int
}

// Count returns the number of distinct (maximal) tainted ranges.
func (s *RangeSet) Count() int { return len(s.ranges) }

// Bytes returns the total number of tainted bytes.
func (s *RangeSet) Bytes() uint64 { return s.bytes }

// Empty reports whether no byte is tainted.
func (s *RangeSet) Empty() bool { return len(s.ranges) == 0 }

// Clear removes all ranges.
func (s *RangeSet) Clear() {
	s.ranges = s.ranges[:0]
	s.bytes = 0
	s.look, s.mut = 0, 0
}

// Ranges returns a copy of the normalized ranges in ascending order.
func (s *RangeSet) Ranges() []mem.Range {
	out := make([]mem.Range, len(s.ranges))
	copy(out, s.ranges)
	return out
}

// AppendRanges appends the normalized ranges in ascending order to dst and
// returns the extended slice. Callers that serialize or inspect many sets
// reuse one scratch buffer across calls instead of forcing a fresh copy
// per set the way Ranges does.
func (s *RangeSet) AppendRanges(dst []mem.Range) []mem.Range {
	return append(dst, s.ranges...)
}

// search returns the index of the first range with Start >= addr. It
// tries the cursor *c first and leaves the answer in it. The cursor is the
// answer iff it satisfies the search postcondition
// ranges[h-1].Start < addr <= ranges[h].Start, so a cursor left stale by
// a mutation costs a search, never a wrong answer.
func (s *RangeSet) search(c *int, addr mem.Addr) int {
	rs := s.ranges
	if h := *c; h <= len(rs) &&
		(h == len(rs) || rs[h].Start >= addr) &&
		(h == 0 || rs[h-1].Start < addr) {
		return h
	}
	i := lowerBound(rs, addr)
	*c = i
	return i
}

// lowerBound returns the index of the first range in rs with Start >=
// addr. It halves the candidate window [base, base+n] without a
// data-dependent branch: (Start - addr) >> 63 is all ones when Start <
// addr and zero otherwise, so the mask selects whether base moves. A
// cursor miss is exactly the case where the comparisons are
// unpredictable, and a conditional jump there mispredicts about every
// other probe; the loop itself runs a count fixed by len(rs).
func lowerBound(rs []mem.Range, addr mem.Addr) int {
	n := len(rs)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n >> 1
		base += half & int((int64(rs[base+half].Start)-int64(addr))>>63)
		n -= half
	}
	return base - int((int64(rs[base].Start)-int64(addr))>>63)
}

// Overlaps reports whether any byte of r is tainted — the paper's lookup:
// ∃ ri ∈ R with max(si, sL) <= min(ei, eL).
func (s *RangeSet) Overlaps(r mem.Range) bool {
	i := s.search(&s.look, r.Start)
	// A range beginning before r.Start may still cover it.
	if i > 0 && s.ranges[i-1].End >= r.Start {
		return true
	}
	return i < len(s.ranges) && s.ranges[i].Start <= r.End
}

// Contains reports whether addr is tainted.
func (s *RangeSet) Contains(addr mem.Addr) bool {
	return s.Overlaps(mem.Range{Start: addr, End: addr})
}

// Add taints r, merging it with any overlapping or adjacent ranges. It
// returns the number of bytes that became tainted and the signed change in
// the distinct-range count (a merge of k existing ranges yields 1-k; a
// pure insert yields +1).
func (s *RangeSet) Add(r mem.Range) (bytesAdded uint64, rangesDelta int) {
	// Find the window of existing ranges that r overlaps or touches.
	lo := s.search(&s.mut, r.Start)
	if lo > 0 && s.ranges[lo-1].End != ^mem.Addr(0) && s.ranges[lo-1].End+1 >= r.Start {
		lo--
	}
	hi := lo
	merged := r
	var swallowed uint64
	for hi < len(s.ranges) {
		cand := s.ranges[hi]
		touches := cand.Start <= merged.End ||
			(merged.End != ^mem.Addr(0) && cand.Start == merged.End+1)
		if !touches {
			break
		}
		merged = merged.Union(cand)
		swallowed += cand.Size()
		hi++
	}
	// merged covers every swallowed range, so the difference is the
	// newly tainted volume.
	bytesAdded = merged.Size() - swallowed
	s.bytes += bytesAdded
	// Replace ranges[lo:hi] with merged, shifting in place.
	if hi == lo {
		// Pure insert: open one slot at lo. The append reallocates only
		// when the working set outgrows its high-water capacity.
		s.ranges = append(s.ranges, mem.Range{})
		copy(s.ranges[lo+1:], s.ranges[lo:])
	} else if hi > lo+1 {
		n := copy(s.ranges[lo+1:], s.ranges[hi:])
		s.ranges = s.ranges[:lo+1+n]
	}
	s.ranges[lo] = merged
	return bytesAdded, 1 - (hi - lo)
}

// Remove untaints r, splitting any range it partially covers. It returns
// the number of bytes actually untainted (0 when nothing overlapped) and
// the signed change in the distinct-range count (+1 on a mid-range split,
// -k when k ranges vanish entirely).
func (s *RangeSet) Remove(r mem.Range) (bytesRemoved uint64, rangesDelta int) {
	lo := s.search(&s.mut, r.Start)
	if lo > 0 && s.ranges[lo-1].End >= r.Start {
		lo--
	}
	// At most two fragments survive the cut: a left remainder from the
	// first overlapped range and a right remainder from the last, so a
	// fixed scratch array replaces the old per-call replacement slice.
	var repl [2]mem.Range
	nrepl := 0
	hi := lo
	for hi < len(s.ranges) && s.ranges[hi].Start <= r.End {
		cand := s.ranges[hi]
		bytesRemoved += cand.Size()
		if cand.Start < r.Start {
			left := mem.Range{Start: cand.Start, End: r.Start - 1}
			repl[nrepl] = left
			nrepl++
			bytesRemoved -= left.Size()
		}
		if cand.End > r.End {
			right := mem.Range{Start: r.End + 1, End: cand.End}
			repl[nrepl] = right
			nrepl++
			bytesRemoved -= right.Size()
		}
		hi++
	}
	if hi == lo {
		return 0, 0 // nothing overlapped
	}
	s.bytes -= bytesRemoved
	// Splice repl[:nrepl] over ranges[lo:hi] in place.
	switch d := nrepl - (hi - lo); {
	case d < 0:
		copy(s.ranges[lo:], repl[:nrepl])
		n := copy(s.ranges[lo+nrepl:], s.ranges[hi:])
		s.ranges = s.ranges[:lo+nrepl+n]
	case d == 0:
		copy(s.ranges[lo:], repl[:nrepl])
	default: // d == +1: a mid-range split needs one extra slot
		s.ranges = append(s.ranges, mem.Range{})
		copy(s.ranges[hi+1:], s.ranges[hi:])
		copy(s.ranges[lo:], repl[:nrepl])
	}
	return bytesRemoved, nrepl - (hi - lo)
}

// IntersectBytes returns how many bytes of r are tainted; useful for
// diagnostics and partial-taint reporting at sinks.
func (s *RangeSet) IntersectBytes(r mem.Range) uint64 {
	var n uint64
	i := s.search(&s.look, r.Start)
	if i > 0 {
		i--
	}
	for ; i < len(s.ranges) && s.ranges[i].Start <= r.End; i++ {
		if ov, ok := s.ranges[i].Intersect(r); ok {
			n += ov.Size()
		}
	}
	return n
}

// Clone returns a deep copy; the DIFT baseline snapshots register file
// taint against it in tests.
func (s *RangeSet) Clone() *RangeSet {
	c := &RangeSet{bytes: s.bytes}
	c.ranges = append(c.ranges, s.ranges...)
	return c
}

func (s *RangeSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.ranges {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.String())
	}
	b.WriteByte('}')
	return b.String()
}

// checkInvariants returns an error describing the first violated
// normalization invariant, or nil; tests call it through Validate.
func (s *RangeSet) checkInvariants() error {
	var bytes uint64
	for i, r := range s.ranges {
		if r.Start > r.End {
			return fmt.Errorf("range %d inverted: %v", i, r)
		}
		bytes += r.Size()
		if i == 0 {
			continue
		}
		prev := s.ranges[i-1]
		if prev.End >= r.Start {
			return fmt.Errorf("ranges %d,%d overlap: %v %v", i-1, i, prev, r)
		}
		if prev.End+1 == r.Start {
			return fmt.Errorf("ranges %d,%d not coalesced: %v %v", i-1, i, prev, r)
		}
	}
	if bytes != s.bytes {
		return fmt.Errorf("byte count %d != computed %d", s.bytes, bytes)
	}
	return nil
}

// Validate checks the internal invariants (sorted, disjoint, coalesced,
// byte count consistent) and returns a descriptive error on violation.
func (s *RangeSet) Validate() error { return s.checkInvariants() }
