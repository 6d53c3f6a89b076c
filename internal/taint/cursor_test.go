package taint

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mem"
)

// randomSet builds a normalized set of n ranges, 1–16 bytes long with
// 1–24-byte gaps. Its ranges start at address 0, at a random address, or
// so that the last one ends at the top of the address space.
func randomSet(rng *rand.Rand, n int) *RangeSet {
	lens := make([]uint64, n)
	gaps := make([]uint64, n)
	var total uint64
	for i := range lens {
		lens[i] = 1 + uint64(rng.Intn(16))
		gaps[i] = 1 + uint64(rng.Intn(24))
		total += lens[i] + gaps[i]
	}
	if n > 0 {
		total -= gaps[n-1]
	}
	var pos uint64
	switch rng.Intn(3) {
	case 1:
		pos = uint64(rng.Int63n(int64(1<<32 - total)))
	case 2:
		pos = 1<<32 - total
	}
	var s RangeSet
	for i := range lens {
		s.Add(mem.Range{Start: mem.Addr(pos), End: mem.Addr(pos + lens[i] - 1)})
		pos += lens[i] + gaps[i]
	}
	return &s
}

// probeAddrs lists the addresses where a search answer changes or could
// be off by one: each range's Start-1, Start, Start+1, End and End+1, the
// ends of the address space, and a few random addresses. Past 1024
// addresses it keeps a random 1024 of them, the address-space ends
// included, so large sets stay cheap under the race detector.
func probeAddrs(rng *rand.Rand, s *RangeSet) []mem.Addr {
	out := []mem.Addr{0, ^mem.Addr(0)}
	for _, r := range s.ranges {
		for _, a := range []int64{int64(r.Start) - 1, int64(r.Start), int64(r.Start) + 1, int64(r.End), int64(r.End) + 1} {
			if a >= 0 && a <= int64(^mem.Addr(0)) {
				out = append(out, mem.Addr(a))
			}
		}
	}
	for i := 0; i < 8; i++ {
		out = append(out, mem.Addr(rng.Uint32()))
	}
	if len(out) > 1024 {
		rng.Shuffle(len(out)-2, func(i, j int) { out[2+i], out[2+j] = out[2+j], out[2+i] })
		out = out[:1024]
	}
	return out
}

// wantSearch is the reference answer: the first index whose range starts
// at or after addr.
func wantSearch(s *RangeSet, addr mem.Addr) int {
	return sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Start >= addr })
}

// checkSearch runs search from cursor value c through both cursors and
// requires the reference answer, left in the cursor that was used.
func checkSearch(t *testing.T, s *RangeSet, c int, addr mem.Addr, state string) {
	t.Helper()
	want := wantSearch(s, addr)
	for _, cur := range []struct {
		name string
		p    *int
	}{{"look", &s.look}, {"mut", &s.mut}} {
		*cur.p = c
		if got := s.search(cur.p, addr); got != want || *cur.p != want {
			t.Fatalf("n=%d %s cursor %d (%s): search(%#x) = %d, cursor left at %d; want %d",
				len(s.ranges), cur.name, c, state, addr, got, *cur.p, want)
		}
	}
}

// TestSearchIgnoresCursors pins the cursors' contract: whatever either
// cursor holds, including a value left stale by a mutation that shifted
// the indices, search returns the lower bound sort.Search computes. A
// cursor may only save a search, never change an answer.
func TestSearchIgnoresCursors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var sizes []int
	for n := 0; n <= 16; n++ {
		sizes = append(sizes, n)
	}
	for i := 0; i < 16; i++ {
		sizes = append(sizes, 17+rng.Intn(2000))
	}
	sizes = append(sizes, 2000)
	for _, n := range sizes {
		s := randomSet(rng, n)
		mustValid(t, s)
		if s.Count() != n {
			t.Fatalf("randomSet built %d ranges, want %d", s.Count(), n)
		}
		for _, addr := range probeAddrs(rng, s) {
			want := wantSearch(s, addr)
			states := []struct {
				c    int
				name string
			}{
				{0, "zero"}, {n, "n"}, {rng.Intn(n + 1), "random"},
				{n + 1, "past n"}, {n + 1 + rng.Intn(1<<20), "far past n"},
				{want - 1, "answer-1"}, {want + 1, "answer+1"},
			}
			for _, st := range states {
				if st.c >= 0 {
					checkSearch(t, s, st.c, addr, st.name)
				}
			}
		}
		if n > 0 {
			checkStaleAfterMutation(t, rng, s)
		}
	}
}

// checkStaleAfterMutation mutates copies of s so that the indices behind
// the cursors shift, then searches from the cursors exactly as the
// mutation left them.
func checkStaleAfterMutation(t *testing.T, rng *rand.Rand, s *RangeSet) {
	t.Helper()
	for k := 0; k < 8; k++ {
		c := s.Clone()
		n := c.Count()
		// Aim the lookup cursor at a valid answer before the mutation.
		c.look = wantSearch(c, c.ranges[rng.Intn(n)].Start)
		j := rng.Intn(n)
		r := c.ranges[j]
		var what string
		switch k % 4 {
		case 0: // a whole range vanishes: later indices move down one
			what = "remove whole"
			c.Remove(r)
		case 1: // a new range lands in the gap after r: later indices move up
			what = "insert"
			if j+1 < n && c.ranges[j+1].Start-r.End > 3 {
				c.Add(mem.Range{Start: r.End + 2, End: r.End + 2})
			} else {
				c.Add(mem.Range{Start: r.Start - 1, End: r.Start - 1})
			}
		case 2: // r splits in two, or shrinks
			what = "split"
			mid := r.Start + (r.End-r.Start)/2
			c.Remove(mem.Range{Start: mid, End: mid})
		case 3: // r swallows up to three following ranges
			what = "swallow"
			last := c.ranges[min(j+1+rng.Intn(3), n-1)]
			c.Add(mem.Range{Start: r.Start, End: last.End})
		}
		mustValid(t, c)
		staleLook, staleMut := c.look, c.mut
		for _, addr := range probeAddrs(rng, c) {
			checkSearch(t, c, staleLook, addr, "look stale after "+what)
			checkSearch(t, c, staleMut, addr, "mut stale after "+what)
		}
	}
}

// TestCursorsFollowTheirStreams checks that the public operations drive
// their own cursor only: lookups leave the mutation cursor alone, and
// mutations leave the lookup cursor alone.
func TestCursorsFollowTheirStreams(t *testing.T) {
	s := denseSet(256)
	s.look, s.mut = 7, 9
	s.Overlaps(mem.Range{Start: 1024, End: 1025})
	s.IntersectBytes(mem.Range{Start: 1040, End: 1041})
	s.Contains(1056)
	if s.mut != 9 {
		t.Fatalf("lookups moved the mutation cursor to %d", s.mut)
	}
	if want := wantSearch(s, 1056); s.look != want {
		t.Fatalf("lookup cursor %d after Contains(1056), want %d", s.look, want)
	}
	look := s.look
	s.Remove(mem.Range{Start: 3000, End: 3001})
	s.Add(mem.Range{Start: 3000, End: 3001})
	s.Remove(mem.Range{Start: 3016, End: 3031})
	if s.look != look {
		t.Fatalf("mutations moved the lookup cursor from %d to %d", look, s.look)
	}
	mustValid(t, s)
}
