package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace/tracegen"
)

// Fuzz input layout for FuzzTrackerEventBatch: one config byte, then four
// bytes per event.
//
//	config  NI = 1 + b&15, NT = 1 + b>>4&3, untaint = b&0x40 != 0
//	event   b0: kind = b0&7 % 5 (4 is no kind the tracker knows),
//	            PID = 1 + b0>>3&3, cut after the event = b0&0x20 != 0
//	        b1: Seq step = b1&31 (per PID, so Seq is monotone per process)
//	        b2: range start, in a 256-byte arena
//	        b3: range size = 1 + b3&15, sink tag = b3>>4
func decodeFuzzTrace(data []byte) (Config, []cpu.Event, []int) {
	c := data[0]
	cfg := Config{NI: 1 + uint64(c&15), NT: 1 + int(c>>4&3), Untaint: c&0x40 != 0}
	var seq [5]uint64
	var evs []cpu.Event
	var cuts []int
	for b := data[1:]; len(b) >= 4; b = b[4:] {
		pid := 1 + uint32(b[0]>>3&3)
		seq[pid] += uint64(b[1] & 31)
		evs = append(evs, cpu.Event{
			Kind:  cpu.EventKind(b[0] & 7 % 5),
			PID:   pid,
			Seq:   seq[pid],
			Range: mem.MakeRange(mem.Addr(b[2]), 1+uint32(b[3]&15)),
			Tag:   int(b[3] >> 4),
		})
		if b[0]&0x20 != 0 {
			cuts = append(cuts, len(evs))
		}
	}
	return cfg, evs, cuts
}

// encodeFuzzTrace is decodeFuzzTrace's inverse for seed inputs: every
// range fits the arena, sizes are 1–16, Seq steps are at most 31 and
// tags at most 15.
func encodeFuzzTrace(cfg Config, evs []cpu.Event, cuts []int) []byte {
	c := byte(cfg.NI-1) | byte(cfg.NT-1)<<4
	if cfg.Untaint {
		c |= 0x40
	}
	out := []byte{c}
	var seq [5]uint64
	for i, ev := range evs {
		b0 := byte(ev.Kind) | byte(ev.PID-1)<<3
		for _, cut := range cuts {
			if cut == i+1 {
				b0 |= 0x20
			}
		}
		step := ev.Seq - seq[ev.PID]
		seq[ev.PID] = ev.Seq
		out = append(out, b0, byte(step), byte(ev.Range.Start),
			byte(ev.Range.Size()-1)|byte(ev.Tag)<<4)
	}
	return out
}

// FuzzTrackerEventBatch applies fuzzed event streams through EventBatch,
// cut at fuzzed points, and requires every observable of a per-event
// tracker.
func FuzzTrackerEventBatch(f *testing.F) {
	evs := emptiedOpenWindow()
	seed := encodeFuzzTrace(Config{NI: 13, NT: 3, Untaint: true}, evs, []int{9})
	if _, got, _ := decodeFuzzTrace(seed); !reflect.DeepEqual(got, evs) {
		f.Fatalf("seed decodes to %+v", got)
	}
	f.Add(seed)
	f.Add(encodeFuzzTrace(Config{NI: 5, NT: 1}, evs, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg, evs, cuts := decodeFuzzTrace(data)
		p := newApplyPair(cfg)
		p.apply(evs, cuts)
		if err := p.diff(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzReadSnapshot decodes arbitrary bytes as a tracker snapshot. The
// decoder must never panic, and a decode that succeeds must be canonical
// after one round trip: re-encode the decoded tracker, decode and encode
// that once more, and the two encodings must be equal. Seeds are
// snapshots of a tracker at several cuts of a taint-dense trace, plus
// snapshots that claim far more windows or verdicts than they hold.
func FuzzReadSnapshot(f *testing.F) {
	rec := tracegen.Generate(tracegen.Spec{Seed: 5, Events: 4096, PIDs: 4, SourceEvery: 64, SinkEvery: 64})
	tr := NewTracker(snapCfg, nil)
	done := 0
	for _, cut := range []int{0, 100, 1000, 4096} {
		feed(tr, rec.Events[done:cut])
		done = cut
		f.Add(encodeSnapshot(f, tr))
	}
	f.Add(claimSnapshot(f, 12, snapMaxWindows))
	f.Add(claimSnapshot(f, 4, snapMaxVerdicts))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := encodeSnapshot(t, tr)
		again, err := ReadSnapshot(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if twice := encodeSnapshot(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("encoding not canonical after a round trip:\n once %x\ntwice %x", once, twice)
		}
	})
}

// encodeSnapshot returns tr's snapshot bytes.
func encodeSnapshot(t testing.TB, tr *Tracker) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
