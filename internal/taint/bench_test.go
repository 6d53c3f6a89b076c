package taint

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// Micro-benchmarks for the hot-path RangeSet operations, split by the
// branch they exercise: overlap hit vs miss, coalescing adds, splitting
// removes. Each has a companion AllocsPerRun gate in
// TestRangeSetHotPathAllocationFree — the in-place mutation rewrite's
// acceptance criterion is 0 allocs/op at steady state.

// denseSet builds a set of n disjoint 8-byte ranges with 8-byte gaps.
func denseSet(n int) *RangeSet {
	var s RangeSet
	for i := 0; i < n; i++ {
		s.Add(mem.Range{Start: mem.Addr(i * 16), End: mem.Addr(i*16 + 7)})
	}
	return &s
}

// twoStream replays the two address streams of the paper's Fig. 1 copy
// loop over denseSet(256), about the mean set size of the benchmark's
// drain corpus: a load (ldrh) reading the lower half two bytes at a time
// and a store (strh) writing the upper half the same way, in turn. The
// stores taint or, with untaint set, untaint their destination. When the
// store stream reaches the end of the set, the set's ranges are restored,
// so every pass sees the same set; the cursors are left as they are.
type twoStream struct {
	s       *RangeSet
	orig    []mem.Range
	bytes   uint64
	untaint bool
	off     mem.Addr // both streams' offset into their half
}

const twoStreamHalf = 128 * 16 // bytes per stream: 128 ranges

func newTwoStream(untaint bool) *twoStream {
	s := denseSet(256)
	return &twoStream{s: s, orig: s.Ranges(), bytes: s.Bytes(), untaint: untaint}
}

// step issues one load and one store.
func (t *twoStream) step() {
	t.s.Overlaps(mem.Range{Start: t.off, End: t.off + 1})
	dst := mem.Range{Start: twoStreamHalf + t.off, End: twoStreamHalf + t.off + 1}
	if t.untaint {
		t.s.Remove(dst)
	} else {
		t.s.Add(dst)
	}
	if t.off += 2; t.off == twoStreamHalf {
		t.off = 0
		t.s.ranges = append(t.s.ranges[:0], t.orig...)
		t.s.bytes = t.bytes
	}
}

func BenchmarkRangeSetAdd(b *testing.B) {
	b.Run("hit", func(b *testing.B) { // re-taint an already covered range
		s := denseSet(512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Add(mem.Range{Start: 1024, End: 1027})
		}
	})
	b.Run("adjacent-merge", func(b *testing.B) { // grow-and-restore: merge into neighbor, then split back off
		s := denseSet(512)
		s.Add(mem.Range{Start: 8, End: 15}) // warm the capacity high-water
		s.Remove(mem.Range{Start: 8, End: 15})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Add(mem.Range{Start: 8, End: 15})
			s.Remove(mem.Range{Start: 8, End: 15})
		}
	})
	b.Run("swallow", func(b *testing.B) { // one add swallows many ranges, then they are re-split
		s := denseSet(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Add(mem.Range{Start: 0, End: 1023})
			for j := 0; j < 64; j++ {
				s.Remove(mem.Range{Start: mem.Addr(j*16 + 8), End: mem.Addr(j*16 + 15)})
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		ops := make([]mem.Range, 4096)
		for i := range ops {
			ops[i] = mem.MakeRange(mem.Addr(rng.Intn(1<<20)), uint32(rng.Intn(64)+1))
		}
		var s RangeSet
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Add(ops[i%len(ops)])
		}
	})
}

func BenchmarkRangeSetRemove(b *testing.B) {
	b.Run("miss", func(b *testing.B) { // untaint clean memory: the common untaint-rule outcome
		s := denseSet(512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Remove(mem.Range{Start: 1032, End: 1039}) // a gap
		}
	})
	b.Run("split", func(b *testing.B) { // mid-range split, then heal
		s := denseSet(512)
		s.Remove(mem.Range{Start: 1026, End: 1029}) // warm the capacity high-water
		s.Add(mem.Range{Start: 1026, End: 1029})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Remove(mem.Range{Start: 1026, End: 1029})
			s.Add(mem.Range{Start: 1026, End: 1029})
		}
	})
	b.Run("exact", func(b *testing.B) { // drop a whole range, then restore it
		s := denseSet(512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Remove(mem.Range{Start: 1024, End: 1031})
			s.Add(mem.Range{Start: 1024, End: 1031})
		}
	})
	b.Run("two-stream", func(b *testing.B) { // copy loop whose stores untaint; one op = a load and a store
		t := newTwoStream(true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.step()
		}
	})
}

func BenchmarkRangeSetOverlaps(b *testing.B) {
	s := denseSet(512)
	b.Run("hit-local", func(b *testing.B) { // repeated same-range lookups: the last-hit cache's case
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Overlaps(mem.Range{Start: 1024, End: 1027})
		}
	})
	b.Run("hit-scattered", func(b *testing.B) { // cache-defeating lookups: full binary search
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Overlaps(mem.Range{Start: mem.Addr((i * 2654435761) % (512 * 16)), End: mem.Addr((i*2654435761)%(512*16) + 1)})
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Overlaps(mem.Range{Start: 1032, End: 1039})
		}
	})
	b.Run("hit-scattered-2048", func(b *testing.B) { // a full search every time, over 2048 ranges
		s := denseSet(2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := mem.Addr((i * 2654435761) % (2048 * 16))
			s.Overlaps(mem.Range{Start: a, End: a + 1})
		}
	})
	b.Run("two-stream", func(b *testing.B) { // copy loop whose stores taint; one op = a load and a store
		t := newTwoStream(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.step()
		}
	})
}

// TestRangeSetHotPathAllocationFree is the acceptance gate for the
// in-place mutation rewrite: at steady state — the working set's range
// count oscillating around a stable size, backing array at its high-water
// capacity — queries and every Add/Remove shape must not allocate.
func TestRangeSetHotPathAllocationFree(t *testing.T) {
	taint, untaint := newTwoStream(false), newTwoStream(true)
	for i := 0; i < twoStreamHalf; i++ { // one whole pass warms each set's capacity
		taint.step()
		untaint.step()
	}
	s := denseSet(512)
	// Warm every capacity high-water the ops below will need.
	s.Add(mem.Range{Start: 8, End: 15})
	s.Remove(mem.Range{Start: 8, End: 15})
	s.Remove(mem.Range{Start: 1026, End: 1029})
	s.Add(mem.Range{Start: 1026, End: 1029})

	cases := []struct {
		name string
		op   func()
	}{
		{"Overlaps/hit", func() { s.Overlaps(mem.Range{Start: 1024, End: 1027}) }},
		{"Overlaps/miss", func() { s.Overlaps(mem.Range{Start: 1032, End: 1039}) }},
		{"Add/covered", func() { s.Add(mem.Range{Start: 1024, End: 1027}) }},
		{"Add+Remove/adjacent-merge", func() {
			s.Add(mem.Range{Start: 8, End: 15})
			s.Remove(mem.Range{Start: 8, End: 15})
		}},
		{"Remove+Add/split", func() {
			s.Remove(mem.Range{Start: 1026, End: 1029})
			s.Add(mem.Range{Start: 1026, End: 1029})
		}},
		{"Remove+Add/exact", func() {
			s.Remove(mem.Range{Start: 1024, End: 1031})
			s.Add(mem.Range{Start: 1024, End: 1031})
		}},
		{"Remove/miss", func() { s.Remove(mem.Range{Start: 1032, End: 1039}) }},
		{"two-stream/taint", taint.step},
		{"two-stream/untaint", untaint.step},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(1000, c.op); n != 0 {
			t.Errorf("%s allocates %v times per op", c.name, n)
		}
	}
	for _, s := range []*RangeSet{s, taint.s, untaint.s} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRangeSetSwallowInPlace pins the shift-within-capacity behavior: once
// the backing array has reached its high-water size, a multi-range swallow
// followed by re-splits must run allocation-free even though the range
// count swings by dozens per cycle.
func TestRangeSetSwallowInPlace(t *testing.T) {
	s := denseSet(64)
	cycle := func() {
		s.Add(mem.Range{Start: 0, End: 1023})
		for j := 0; j < 64; j++ {
			s.Remove(mem.Range{Start: mem.Addr(j*16 + 8), End: mem.Addr(j*16 + 15)})
		}
	}
	cycle() // warm: the re-split phase grows capacity to its high-water
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("swallow/re-split cycle allocates %v times per op", n)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 64 {
		t.Fatalf("count %d after cycles, want 64", s.Count())
	}
}
