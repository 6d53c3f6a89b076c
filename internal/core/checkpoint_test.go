package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

var snapCfg = Config{NI: 13, NT: 3, Untaint: true}

// snapStream drives a tracker into a nontrivial state: several PIDs, open
// and expired windows, taint adds, removals, and recorded verdicts.
func snapStream(n int, seed int64) []cpu.Event {
	rng := rand.New(rand.NewSource(seed))
	seqs := map[uint32]uint64{}
	evs := make([]cpu.Event, 0, n)
	for i := 0; i < n; i++ {
		pid := uint32(1 + rng.Intn(5))
		seqs[pid] += uint64(1 + rng.Intn(3))
		ev := cpu.Event{PID: pid, Seq: seqs[pid]}
		addr := mem.Addr(rng.Intn(4096))
		ev.Range = mem.MakeRange(addr, uint32(1+rng.Intn(8)))
		switch k := rng.Intn(100); {
		case k < 2:
			ev.Kind = cpu.EvSourceRegister
		case k < 5:
			ev.Kind = cpu.EvSinkCheck
			ev.Tag = i
		case k < 55:
			ev.Kind = cpu.EvLoad
		default:
			ev.Kind = cpu.EvStore
		}
		evs = append(evs, ev)
	}
	return evs
}

// feed pumps events through a tracker.
func feed(t *Tracker, evs []cpu.Event) {
	for _, ev := range evs {
		t.Event(ev)
	}
}

// TestSnapshotRoundTripEquivalence is the core of the resume guarantee:
// snapshot a tracker mid-stream, restore it, feed both the restored and
// the original tracker the remaining events, and demand byte-identical
// stats, verdicts, and taint state at the end — plus identical re-encoded
// snapshots, since the encoding is canonical.
func TestSnapshotRoundTripEquivalence(t *testing.T) {
	evs := snapStream(20_000, 7)
	for _, cut := range []int{0, 1, 137, 9_999, 20_000} {
		orig := NewTracker(snapCfg, nil)
		feed(orig, evs[:cut])

		var buf bytes.Buffer
		n, err := orig.WriteSnapshot(&buf)
		if err != nil {
			t.Fatalf("cut %d: WriteSnapshot: %v", cut, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("cut %d: WriteSnapshot reported %d bytes, wrote %d", cut, n, buf.Len())
		}
		restored, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("cut %d: ReadSnapshot: %v", cut, err)
		}
		if restored.Config() != snapCfg {
			t.Fatalf("cut %d: config %v, want %v", cut, restored.Config(), snapCfg)
		}

		feed(orig, evs[cut:])
		feed(restored, evs[cut:])
		if orig.Stats() != restored.Stats() {
			t.Fatalf("cut %d: stats diverge:\n orig %+v\n rest %+v", cut, orig.Stats(), restored.Stats())
		}
		if !reflect.DeepEqual(orig.Verdicts(), restored.Verdicts()) {
			t.Fatalf("cut %d: verdicts diverge (%d vs %d)", cut, len(orig.Verdicts()), len(restored.Verdicts()))
		}
		var a, b bytes.Buffer
		if _, err := orig.WriteSnapshot(&a); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.WriteSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("cut %d: final snapshots not byte-identical", cut)
		}
	}
}

// TestSnapshotDeterministic: the same semantic state must always encode
// to the same bytes, independent of map iteration order.
func TestSnapshotDeterministic(t *testing.T) {
	evs := snapStream(5_000, 11)
	var want []byte
	for trial := 0; trial < 5; trial++ {
		tr := NewTracker(snapCfg, nil)
		feed(tr, evs)
		var buf bytes.Buffer
		if _, err := tr.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("trial %d: snapshot bytes differ from trial 0", trial)
		}
	}
}

// TestSnapshotRejectsCorruption walks the failure modes: bad magic,
// truncation at every prefix length, and an implausible section count.
func TestSnapshotRejectsCorruption(t *testing.T) {
	tr := NewTracker(snapCfg, nil)
	feed(tr, snapStream(2_000, 3))
	var buf bytes.Buffer
	if _, err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	bad := append([]byte(nil), full...)
	bad[0] ^= 0xff
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt magic accepted")
	}

	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
	}

	if _, err := ReadSnapshot(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Fatal("one-byte truncation accepted")
	}
}

// claimSnapshot returns an empty tracker's snapshot cut right after one
// section's entry count, with that count set to n: a snapshot that claims
// n entries and holds none. In an empty snapshot the windows count sits
// 12 bytes before the end and the verdicts count 4.
func claimSnapshot(t testing.TB, fromEnd int, n uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := NewTracker(snapCfg, nil).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.AppendUint32(buf.Bytes()[:buf.Len()-fromEnd], n)
}

// allocatedBy reports the heap bytes allocated while f runs.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadSnapshotClaimedWindows: a 101-byte snapshot that claims the
// most windows a snapshot may hold fails as truncated, without sizing a
// map for the windows it claims.
func TestReadSnapshotClaimedWindows(t *testing.T) {
	snap := claimSnapshot(t, 12, snapMaxWindows)
	var err error
	alloc := allocatedBy(func() { _, err = ReadSnapshot(bytes.NewReader(snap)) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("%d-byte snapshot: err = %v, want unexpected EOF", len(snap), err)
	}
	if alloc >= 1<<20 {
		t.Fatalf("%d-byte snapshot claiming %d windows allocated %d bytes", len(snap), snapMaxWindows, alloc)
	}
}

// TestReadSnapshotClaimedVerdicts: a 109-byte snapshot that claims the
// most verdicts a snapshot may hold fails as truncated, without sizing a
// slice for the verdicts it claims.
func TestReadSnapshotClaimedVerdicts(t *testing.T) {
	snap := claimSnapshot(t, 4, snapMaxVerdicts)
	var err error
	alloc := allocatedBy(func() { _, err = ReadSnapshot(bytes.NewReader(snap)) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("%d-byte snapshot: err = %v, want unexpected EOF", len(snap), err)
	}
	if alloc >= 1<<20 {
		t.Fatalf("%d-byte snapshot claiming %d verdicts allocated %d bytes", len(snap), snapMaxVerdicts, alloc)
	}
}

// TestSnapshotRequiresIdealStore: bounded stores evict, so they cannot be
// checkpointed; the codec must refuse rather than silently capture a
// state that is not a function of the stream.
func TestSnapshotRequiresIdealStore(t *testing.T) {
	tr := NewTracker(snapCfg, NewMondrianStore())
	if _, err := tr.WriteSnapshot(io.Discard); err == nil {
		t.Fatal("snapshot of a bounded store accepted")
	}
}
