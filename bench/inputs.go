package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// trackerConfig is the paper's window (NI=13, NT=3, untainting on), the
// configuration every command of the repository defaults to.
var trackerConfig = core.Config{NI: 13, NT: 3, Untaint: true}

// corpusSeed derives the generator seed of corpus i from the run's seed.
func corpusSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// genCorpus generates one synthetic multi-process event stream. A clean
// corpus has no source registrations, so no byte is ever tainted: the
// generator's rare sources (one per 2^30 events) are turned into loads of
// the same range, which keeps the event count and the access pattern.
func genCorpus(seed int64, events, pids, sourceEvery int, clean bool) []cpu.Event {
	if clean {
		sourceEvery = 1 << 30
	}
	evs := tracegen.Generate(tracegen.Spec{Seed: seed, Events: events, PIDs: pids, SourceEvery: sourceEvery}).Events
	if clean {
		for i := range evs {
			if evs[i].Kind == cpu.EvSourceRegister {
				evs[i].Kind = cpu.EvLoad
			}
		}
	}
	return evs
}

// PIFTTRC1 layout: a 16-byte header (magic, u64 event count) and one
// fixed 25-byte little-endian record per event.
const (
	v1HeaderSize = 16
	v1RecordSize = 25
)

// encodeV1 writes events as a PIFTTRC1 trace. The benchmark keeps its own
// encoder so that the drain input does not depend on the program's v1
// writer, which archived-trace support does not need.
func encodeV1(events []cpu.Event) []byte {
	out := make([]byte, v1HeaderSize+len(events)*v1RecordSize)
	copy(out, "PIFTTRC1")
	binary.LittleEndian.PutUint64(out[8:], uint64(len(events)))
	rec := out[v1HeaderSize:]
	for _, ev := range events {
		rec[0] = byte(ev.Kind)
		binary.LittleEndian.PutUint32(rec[1:], ev.PID)
		binary.LittleEndian.PutUint64(rec[5:], ev.Seq)
		binary.LittleEndian.PutUint32(rec[13:], ev.Range.Start)
		binary.LittleEndian.PutUint32(rec[17:], ev.Range.End)
		binary.LittleEndian.PutUint32(rec[21:], uint32(int32(ev.Tag)))
		rec = rec[v1RecordSize:]
	}
	return out
}

// encodeV2 writes events as a PIFTTRC2 trace with the program's writer.
func encodeV2(events []cpu.Event) ([]byte, error) {
	var buf bytes.Buffer
	rec := trace.Recorder{Events: events}
	if _, err := rec.WriteToFormat(&buf, trace.FormatV2); err != nil {
		return nil, fmt.Errorf("bench: encoding PIFTTRC2: %w", err)
	}
	return buf.Bytes(), nil
}

// encodeChunks cuts events into chunks of n events, each a self-contained
// PIFTTRC2 upload body.
func encodeChunks(events []cpu.Event, n int) ([][]byte, error) {
	var out [][]byte
	for at := 0; at < len(events); at += n {
		end := min(at+n, len(events))
		b, err := encodeV2(events[at:end])
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// oracle is the one-shot sequential replay every result must reproduce.
type oracle struct {
	stats    core.Stats
	verdicts []core.SinkVerdict // canonical order (core.SortVerdicts)
}

func replayOracle(events []cpu.Event) oracle {
	tr := core.NewTracker(trackerConfig, nil)
	for _, ev := range events {
		tr.Event(ev)
	}
	return oracle{stats: tr.Stats(), verdicts: sortedVerdicts(tr.Verdicts())}
}

func sortedVerdicts(vs []core.SinkVerdict) []core.SinkVerdict {
	out := append([]core.SinkVerdict(nil), vs...)
	core.SortVerdicts(out)
	return out
}

// check compares a sharded result with the oracle. Counters must match
// exactly. The taint watermarks of a sharded run are the largest any one
// shard reached, which is at most the sequential value.
func (o oracle) check(st core.Stats, verdicts []core.SinkVerdict) error {
	want, got := o.stats, st
	if got.MaxBytes > want.MaxBytes || got.MaxRanges > want.MaxRanges {
		return fmt.Errorf("watermarks %d bytes/%d ranges exceed the oracle's %d/%d",
			got.MaxBytes, got.MaxRanges, want.MaxBytes, want.MaxRanges)
	}
	got.MaxBytes, got.MaxRanges = want.MaxBytes, want.MaxRanges
	if got != want {
		return fmt.Errorf("stats %+v, oracle %+v", st, o.stats)
	}
	return equalVerdicts(verdicts, o.verdicts)
}

// equalVerdicts compares two canonically ordered verdict lists.
func equalVerdicts(got, want []core.SinkVerdict) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d verdicts, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("verdict %d is %+v, oracle has %+v", i, got[i], want[i])
		}
	}
	return nil
}
