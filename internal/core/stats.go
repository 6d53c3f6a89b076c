package core

import (
	"cmp"
	"slices"
)

// Merge accumulates another tracker's statistics into s: event and
// operation counters sum exactly, while the MaxBytes/MaxRanges watermarks
// take the maximum of the two runs.
//
// For shards of one event stream split by PID (taint state is per-process,
// so the split is semantics-preserving) the summed counters equal the
// sequential tracker's exactly. The merged watermark is the largest any
// one shard reached: identical to the sequential value whenever taint
// lives in a single process at a time (every DroidBench trace), and a
// lower bound on the instantaneous cross-process total otherwise. The same
// max semantics serve multi-run aggregation, where the watermark of the
// worst run is the quantity of interest.
func (s *Stats) Merge(other Stats) {
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.TaintedLoads += other.TaintedLoads
	s.TaintOps += other.TaintOps
	s.UntaintOps += other.UntaintOps
	s.SourceRegs += other.SourceRegs
	s.SinkChecks += other.SinkChecks
	s.TaintedSinks += other.TaintedSinks
	if other.MaxBytes > s.MaxBytes {
		s.MaxBytes = other.MaxBytes
	}
	if other.MaxRanges > s.MaxRanges {
		s.MaxRanges = other.MaxRanges
	}
}

// SortVerdicts puts sink verdicts into the canonical replay order: by PID,
// then per-process sequence number, then sink tag. A sequential tracker's
// verdict list and the concatenation of per-shard verdict lists sort to
// identical sequences, which is what lets a sharded pipeline's output be
// compared byte-for-byte against the sequential oracle. The sort is
// stable, so verdicts that tie on all three keys keep their stream order.
func SortVerdicts(vs []SinkVerdict) {
	slices.SortStableFunc(vs, func(a, b SinkVerdict) int {
		if c := cmp.Compare(a.PID, b.PID); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
			return c
		}
		return cmp.Compare(a.Tag, b.Tag)
	})
}
