package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// drainKeep pulls a reader dry through NextBatchKeep (NextBatch when keep
// is nil) with the given buffer size, returning the events delivered
// before any error and the error (nil at a clean end).
func drainKeep(r *trace.Reader, keep func(pid uint32) bool, batch int) ([]cpu.Event, error) {
	var out []cpu.Event
	buf := make([]cpu.Event, batch)
	for {
		n, err := r.NextBatchKeep(buf, keep)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// TestNextBatchKeepIsFilteredNextBatch is the filtered read's defining
// property: over tracegen traces with 64 PIDs and with one, in PIFTTRC1
// and in PIFTTRC3 at block sizes 1, 7 and 4096, and through segment
// readers whose segments start and end inside blocks, NextBatchKeep with
// keep = pid%n == k returns exactly the plain NextBatch stream filtered by
// that predicate, every reader ends with Offset at its segment's end, and
// the n streams of one segment together hold each event exactly once.
func TestNextBatchKeepIsFilteredNextBatch(t *testing.T) {
	type wire struct {
		name string
		raw  []byte
	}
	for _, spec := range []tracegen.Spec{
		{Seed: 61, Events: 9001, PIDs: 64, Quantum: 64},
		{Seed: 62, Events: 9001, PIDs: 64, Quantum: 3},
		{Seed: 63, Events: 9001, PIDs: 1},
	} {
		rec := tracegen.Generate(spec)
		var v1 bytes.Buffer
		if _, err := rec.WriteTo(&v1); err != nil {
			t.Fatal(err)
		}
		wires := []wire{{"v1", v1.Bytes()}}
		for _, block := range []int{1, 7, 4096} {
			var v2 bytes.Buffer
			bw := trace.NewBlockWriter(&v2, uint64(rec.Len()), block)
			for _, ev := range rec.Events {
				if err := bw.Append(ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := bw.Close(); err != nil {
				t.Fatal(err)
			}
			wires = append(wires, wire{fmt.Sprintf("v2/block=%d", block), v2.Bytes()})
		}
		total := uint64(rec.Len())
		// Cuts off every block boundary of the 7- and 4096-event layouts.
		segs := []trace.Segment{
			{First: 0, Count: total},
			{First: 0, Count: 2050},
			{First: 2050, Count: 4100},
			{First: 6150, Count: total - 6150},
			{First: 4099, Count: 3},
		}
		for _, w := range wires {
			ra := bytes.NewReader(w.raw)
			idx, err := trace.LoadIndex(ra)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range segs {
				plain, err := drainKeep(idx.SegmentReader(ra, seg), nil, 256)
				if err != nil {
					t.Fatal(err)
				}
				if uint64(len(plain)) != seg.Count {
					t.Fatalf("%s/pids=%d seg=%+v: plain read %d events", w.name, spec.PIDs, seg, len(plain))
				}
				for _, n := range []uint32{2, 3, 4} {
					streams := make([][]cpu.Event, n)
					for k := uint32(0); k < n; k++ {
						name := fmt.Sprintf("%s/pids=%d/q=%d seg=%+v pid%%%d==%d", w.name, spec.PIDs, spec.Quantum, seg, n, k)
						keep := func(pid uint32) bool { return pid%n == k }
						r := idx.SegmentReader(ra, seg)
						got, err := drainKeep(r, keep, 1+int(k)*37)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if r.Offset() != seg.End() {
							t.Fatalf("%s: Offset %d at the end, want %d", name, r.Offset(), seg.End())
						}
						var want []cpu.Event
						for _, ev := range plain {
							if keep(ev.PID) {
								want = append(want, ev)
							}
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d events, plain read filtered has %d", name, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s: event %d is %+v, want %+v", name, i, got[i], want[i])
							}
						}
						streams[k] = got
					}
					// Exactly once: walking the plain stream, each event is
					// the next unclaimed event of its PID's stream, and
					// every stream is used up.
					at := make([]int, n)
					for i, ev := range plain {
						s := streams[ev.PID%n]
						if at[ev.PID%n] >= len(s) || s[at[ev.PID%n]] != ev {
							t.Fatalf("%s/pids=%d seg=%+v n=%d: event %d not found once", w.name, spec.PIDs, seg, n, i)
						}
						at[ev.PID%n]++
					}
					for k := range streams {
						if at[k] != len(streams[k]) {
							t.Fatalf("%s/pids=%d seg=%+v n=%d: stream %d holds %d extra events", w.name, spec.PIDs, seg, n, k, len(streams[k])-at[k])
						}
					}
				}
			}
		}
	}
}

// TestNextBatchKeepRejectsAll: a predicate that keeps nothing drains the
// stream to (0, io.EOF) with Offset at the end, in both formats.
func TestNextBatchKeepRejectsAll(t *testing.T) {
	rec := tracegen.Generate(tracegen.Spec{Seed: 64, Events: 5000, PIDs: 8})
	for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		var buf bytes.Buffer
		if _, err := rec.WriteToFormat(&buf, f); err != nil {
			t.Fatal(err)
		}
		r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		n, err := r.NextBatchKeep(make([]cpu.Event, 64), func(uint32) bool { return false })
		if n != 0 || err != io.EOF || r.Offset() != uint64(rec.Len()) {
			t.Fatalf("%v: keep-nothing read = (%d, %v) at offset %d, want (0, EOF) at %d", f, n, err, r.Offset(), rec.Len())
		}
	}
}
