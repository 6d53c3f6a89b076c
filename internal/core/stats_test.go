package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace/tracegen"
)

func TestStatsMerge(t *testing.T) {
	tests := []struct {
		name string
		dst  Stats
		src  Stats
		want Stats
	}{
		{
			name: "zero into zero",
		},
		{
			name: "zero absorbs other",
			src:  Stats{Loads: 3, Stores: 2, MaxBytes: 10, MaxRanges: 4},
			want: Stats{Loads: 3, Stores: 2, MaxBytes: 10, MaxRanges: 4},
		},
		{
			name: "counters sum",
			dst: Stats{
				Loads: 1, Stores: 2, TaintedLoads: 3, TaintOps: 4,
				UntaintOps: 5, SourceRegs: 6, SinkChecks: 7, TaintedSinks: 8,
			},
			src: Stats{
				Loads: 10, Stores: 20, TaintedLoads: 30, TaintOps: 40,
				UntaintOps: 50, SourceRegs: 60, SinkChecks: 70, TaintedSinks: 80,
			},
			want: Stats{
				Loads: 11, Stores: 22, TaintedLoads: 33, TaintOps: 44,
				UntaintOps: 55, SourceRegs: 66, SinkChecks: 77, TaintedSinks: 88,
			},
		},
		{
			name: "watermarks max, not sum — dst higher",
			dst:  Stats{MaxBytes: 100, MaxRanges: 9},
			src:  Stats{MaxBytes: 40, MaxRanges: 3},
			want: Stats{MaxBytes: 100, MaxRanges: 9},
		},
		{
			name: "watermarks max, not sum — src higher",
			dst:  Stats{MaxBytes: 40, MaxRanges: 3},
			src:  Stats{MaxBytes: 100, MaxRanges: 9},
			want: Stats{MaxBytes: 100, MaxRanges: 9},
		},
		{
			name: "mixed: counters sum while watermarks max independently",
			dst:  Stats{Loads: 5, MaxBytes: 64, MaxRanges: 2},
			src:  Stats{Loads: 7, MaxBytes: 32, MaxRanges: 6},
			want: Stats{Loads: 12, MaxBytes: 64, MaxRanges: 6},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.dst
			got.Merge(tt.src)
			if got != tt.want {
				t.Fatalf("Merge = %+v, want %+v", got, tt.want)
			}
		})
	}
}

// windowStream builds a three-process stream that exercises tainted
// loads, propagation, untainting, and sink checks in every process.
func windowStream() []cpu.Event {
	var evs []cpu.Event
	for pid := uint32(1); pid <= 3; pid++ {
		base := mem.Addr(0x1000 * uint32(pid))
		evs = append(evs,
			source(pid, base, 8),
			load(pid, 1, base, 4),         // tainted load: opens window
			store(pid, 2, base+0x100, 4),  // propagates
			store(pid, 3, base+0x200, 4),  // propagates (NT=2 budget)
			store(pid, 4, base+0x300, 4),  // budget exhausted: untaints (miss)
			load(pid, 10, base+0x800, 4),  // clean load
			store(pid, 11, base+0x100, 4), // outside window: real untaint
			cpu.Event{Kind: cpu.EvSinkCheck, PID: pid, Seq: 12,
				Range: mem.MakeRange(base+0x200, 4), Tag: int(pid)},
		)
	}
	// Interleave processes so the stream is not PID-sorted.
	var out []cpu.Event
	per := len(evs) / 3
	for i := 0; i < per; i++ {
		for p := 0; p < 3; p++ {
			out = append(out, evs[p*per+i])
		}
	}
	return out
}

// TestStatsMergeMatchesSharding checks the semantic claim Merge is built
// on: a tracker over the whole stream and trackers over per-PID shards
// produce the same summed counters.
func TestStatsMergeMatchesSharding(t *testing.T) {
	evs := windowStream()
	cfg := Config{NI: 4, NT: 2, Untaint: true}

	whole := NewTracker(cfg, nil)
	for _, ev := range evs {
		whole.Event(ev)
	}

	shards := map[uint32]*Tracker{}
	for _, ev := range evs {
		tr := shards[ev.PID]
		if tr == nil {
			tr = NewTracker(cfg, nil)
			shards[ev.PID] = tr
		}
		tr.Event(ev)
	}
	var merged Stats
	for _, tr := range shards {
		merged.Merge(tr.Stats())
	}

	want := whole.Stats()
	// Counters must match exactly; watermarks are per-shard maxima, so
	// compare them separately as a lower bound.
	cmp := merged
	cmp.MaxBytes, cmp.MaxRanges = want.MaxBytes, want.MaxRanges
	if cmp != want {
		t.Fatalf("sharded counters %+v, want %+v", merged, want)
	}
	if merged.MaxBytes > want.MaxBytes || merged.MaxRanges > want.MaxRanges {
		t.Fatalf("sharded watermarks %d/%d exceed sequential %d/%d",
			merged.MaxBytes, merged.MaxRanges, want.MaxBytes, want.MaxRanges)
	}
}

func TestSortVerdicts(t *testing.T) {
	vs := []SinkVerdict{
		{Tag: 3, PID: 2, Seq: 10, Tainted: true},
		{Tag: 2, PID: 1, Seq: 20},
		{Tag: 1, PID: 1, Seq: 5, Tainted: true},
		{Tag: 5, PID: 1, Seq: 5},
		{Tag: 4, PID: 2, Seq: 1},
	}
	SortVerdicts(vs)
	want := []SinkVerdict{
		{Tag: 1, PID: 1, Seq: 5, Tainted: true},
		{Tag: 5, PID: 1, Seq: 5},
		{Tag: 2, PID: 1, Seq: 20},
		{Tag: 4, PID: 2, Seq: 1},
		{Tag: 3, PID: 2, Seq: 10, Tainted: true},
	}
	if !reflect.DeepEqual(vs, want) {
		t.Fatalf("SortVerdicts = %+v, want %+v", vs, want)
	}
}

// sortVerdictsReference is SortVerdicts as sort.SliceStable over the same
// (PID, Seq, Tag) key.
func sortVerdictsReference(vs []SinkVerdict) {
	sort.SliceStable(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Tag < b.Tag
	})
}

// TestSortVerdictsMatchesReference: on random lists with ties on every
// key, SortVerdicts orders exactly as the reference, ties included (the
// Tainted flag tells tied verdicts apart).
func TestSortVerdictsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		vs := make([]SinkVerdict, rng.Intn(200))
		for i := range vs {
			vs[i] = SinkVerdict{
				PID: uint32(rng.Intn(3)), Seq: uint64(rng.Intn(4)),
				Tag: rng.Intn(4) - 1, Tainted: rng.Intn(2) == 0,
			}
		}
		want := append([]SinkVerdict(nil), vs...)
		sortVerdictsReference(want)
		SortVerdicts(vs)
		if !slices.Equal(vs, want) {
			t.Fatalf("trial %d: SortVerdicts = %+v, want %+v", trial, vs, want)
		}
	}
}

// BenchmarkSortVerdicts sorts the verdicts of two PID shards of a
// default-density 1 Mi-event corpus, concatenated, as Pipeline.Close
// and MergeTrackers do.
func BenchmarkSortVerdicts(b *testing.B) {
	shards := [2]*Tracker{
		NewTracker(Config{NI: 13, NT: 3, Untaint: true}, nil),
		NewTracker(Config{NI: 13, NT: 3, Untaint: true}, nil),
	}
	for _, ev := range tracegen.Generate(tracegen.Spec{Seed: 1}).Events {
		shards[ev.PID%2].Event(ev)
	}
	all := append(append([]SinkVerdict(nil), shards[0].Verdicts()...), shards[1].Verdicts()...)
	vs := make([]SinkVerdict, len(all))
	for _, c := range []struct {
		name string
		sort func([]SinkVerdict)
	}{{"SortVerdicts", SortVerdicts}, {"SliceStable", sortVerdictsReference}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(vs, all)
				c.sort(vs)
			}
		})
	}
}
