package taint

import (
	"testing"

	"repro/internal/mem"
)

// twoStreamScript encodes, as a FuzzRangeSetOps script, the traffic the
// RangeSet cursors serve: the two address streams of a copy loop (Fig. 1's
// ldrh source and strh destination). It first taints 8 ranges under the
// load stream and 24 under the store stream, then alternates a load
// (Overlaps) reading two bytes at a time from src with a 2-byte store
// walking forward from dst in 5-byte steps. Every fourth store taints
// (Add); the others untaint (Remove), and every eighth untaints 16 bytes.
// The stores insert, merge, split, trim and delete ranges in their path,
// so the indices under the load stream shift whenever src lies above
// dst. A negative lag makes the loads trail the stores by that many
// steps instead of reading src.
func twoStreamScript(src, dst uint16, lag int) []byte {
	var b []byte
	op := func(code byte, start uint16, length byte) {
		b = append(b, code, byte(start>>8), byte(start), length-1)
	}
	for i := 0; i < 8; i++ {
		op(0, src+uint16(24*i), 8)
	}
	for i := 0; i < 24; i++ {
		op(0, dst+uint16(24*i), 8)
	}
	for i := 0; i < 112; i++ {
		load := src + uint16(2*i)%192
		if lag < 0 {
			load = dst + uint16(5*max(i+lag, 0))
		}
		op(2, load, 2)
		store, length := byte(1), byte(2)
		if i%4 == 3 {
			store = 0
		}
		if i%8 == 5 {
			length = 16
		}
		op(store, dst+uint16(5*i), length)
	}
	return b
}

// FuzzRangeSetOps hammers the in-place mutation paths with random
// Add/Remove/Overlaps sequences over a 16-bit address space (wide enough
// to populate long range arrays and hit every shift/splice branch) and
// validates, after every op: the normalization invariants, the byte-level
// model, and — the part FuzzRangeSet cannot see — the per-op deltas that
// core.IdealStore aggregates incrementally. A mutation that leaves the set
// normalized but misreports its delta would silently skew TaintedBytes and
// RangeCount; this target pins them to the set's own Bytes/Count.
//
// After every op it also checks IntersectBytes and Contains at the last
// Overlaps range against the model. They share the lookup cursor with
// Overlaps, and a mutation may have just shifted the indices under it.
//
// Run with `go test -fuzz FuzzRangeSetOps ./internal/taint` for deep
// fuzzing; the seed corpus runs as a normal test.
func FuzzRangeSetOps(f *testing.F) {
	f.Add([]byte{0, 0, 10, 4, 0, 0, 20, 4, 1, 0, 12, 16})
	f.Add([]byte{0, 1, 0, 255, 1, 1, 100, 10, 2, 0, 50, 1, 0, 1, 0, 255})
	f.Add([]byte{0, 255, 255, 32, 1, 255, 255, 32})
	f.Add([]byte{})
	f.Add(twoStreamScript(0x1000, 0x4000, 0)) // loads below the stores
	f.Add(twoStreamScript(0xc000, 0x4000, 0)) // loads above: their indices shift
	f.Add(twoStreamScript(0, 0x4000, -8))     // loads trail the stores
	f.Fuzz(func(t *testing.T, script []byte) {
		var s RangeSet
		ref := map[mem.Addr]bool{}
		var aggBytes uint64 // mirrors IdealStore's incremental bookkeeping
		aggRanges := 0
		var probe mem.Range // the load stream's position: the last Overlaps range
		for i := 0; i+3 < len(script); i += 4 {
			op := script[i] % 3
			start := mem.Addr(script[i+1])<<8 | mem.Addr(script[i+2])
			length := uint32(script[i+3]%64) + 1
			r := mem.MakeRange(start, length)
			switch op {
			case 0:
				added, delta := s.Add(r)
				aggBytes += added
				aggRanges += delta
				var want uint64
				for a := r.Start; a <= r.End; a++ {
					if !ref[a] {
						want++
					}
					ref[a] = true
				}
				if added != want {
					t.Fatalf("Add(%v) reported %d bytes added, model %d", r, added, want)
				}
			case 1:
				removed, delta := s.Remove(r)
				aggBytes -= removed
				aggRanges += delta
				var want uint64
				for a := r.Start; a <= r.End; a++ {
					if ref[a] {
						want++
					}
					delete(ref, a)
				}
				if removed != want {
					t.Fatalf("Remove(%v) reported %d bytes removed, model %d", r, removed, want)
				}
			case 2:
				want := false
				for a := r.Start; a <= r.End; a++ {
					want = want || ref[a]
				}
				if got := s.Overlaps(r); got != want {
					t.Fatalf("Overlaps(%v) = %v, model %v", r, got, want)
				}
				probe = r
			}
			var tainted uint64
			for a := probe.Start; a <= probe.End; a++ {
				if ref[a] {
					tainted++
				}
			}
			if got := s.IntersectBytes(probe); got != tainted {
				t.Fatalf("after op %d: IntersectBytes(%v) = %d, model %d", i/4, probe, got, tainted)
			}
			for _, a := range []mem.Addr{probe.Start, probe.End} {
				if got := s.Contains(a); got != ref[a] {
					t.Fatalf("after op %d: Contains(%#x) = %v, model %v", i/4, a, got, ref[a])
				}
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("invariant broken after op %d: %v", i/4, err)
			}
			if s.Bytes() != uint64(len(ref)) {
				t.Fatalf("bytes %d, model %d", s.Bytes(), len(ref))
			}
			if aggBytes != s.Bytes() {
				t.Fatalf("delta-aggregated bytes %d, set reports %d", aggBytes, s.Bytes())
			}
			if aggRanges != s.Count() {
				t.Fatalf("delta-aggregated range count %d, set reports %d", aggRanges, s.Count())
			}
		}
		// AppendRanges must agree with Ranges and leave dst's prefix alone.
		prefix := []mem.Range{{Start: 1, End: 2}}
		got := s.AppendRanges(prefix)
		want := s.Ranges()
		if len(got) != 1+len(want) || got[0] != prefix[0] {
			t.Fatalf("AppendRanges mangled dst: %v", got)
		}
		for i, r := range want {
			if got[1+i] != r {
				t.Fatalf("AppendRanges[%d] = %v, Ranges %v", i, got[1+i], r)
			}
		}
	})
}
