package chaos

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/cpu"
)

// TestInjectorDeterminism: the whole point of the package — two injectors
// with the same seed draw identical schedules; a different seed diverges.
func TestInjectorDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	var av, bv []int64
	for i := 0; i < 100; i++ {
		av = append(av, a.Between(0, 1_000_000))
		bv = append(bv, b.Between(0, 1_000_000))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("draw %d: %d vs %d from the same seed", i, av[i], bv[i])
		}
	}
	c := New(43)
	same := true
	for i := range av {
		if c.Between(0, 1_000_000) != av[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 drew identical 100-value schedules")
	}
	if got := New(7).Between(5, 5); got != 5 {
		t.Fatalf("Between on an empty interval = %d, want lo", got)
	}
}

// TestReaderTorn: a tear delivers every byte before the scheduled offset
// unmodified, then fails every read with an error that classifies as a
// truncation (io.ErrUnexpectedEOF), exactly like a real cut-off stream.
func TestReaderTorn(t *testing.T) {
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	f := NoReaderFaults()
	f.TornAt = 1000
	r := New(1).Reader(bytes.NewReader(src), f)
	got, err := io.ReadAll(r)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn read error = %v, want io.ErrUnexpectedEOF", err)
	}
	if !bytes.Equal(got, src[:1000]) {
		t.Fatalf("delivered %d bytes before the tear, want exactly 1000 intact", len(got))
	}
}

// TestReaderCorrupt: exactly one byte is flipped, at exactly the
// scheduled offset, regardless of how the reads happen to be sliced.
func TestReaderCorrupt(t *testing.T) {
	src := make([]byte, 4096)
	f := NoReaderFaults()
	f.CorruptAt = 2049
	f.MaxRead = 7 // ragged reads must not move the flip
	r := New(3).Reader(bytes.NewReader(src), f)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(src) {
		t.Fatalf("read %d bytes, want %d", len(got), len(src))
	}
	for i, b := range got {
		want := byte(0)
		if int64(i) == f.CorruptAt {
			want = 0x80 // the default XOR
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

// TestReaderShortReads: MaxRead caps every read but loses nothing, and
// the read-size schedule is reproducible from the seed.
func TestReaderShortReads(t *testing.T) {
	src := make([]byte, 10_000)
	for i := range src {
		src[i] = byte(i * 31)
	}
	sizes := func(seed int64) ([]int, []byte) {
		f := NoReaderFaults()
		f.MaxRead = 13
		r := New(seed).Reader(bytes.NewReader(src), f)
		var ns []int
		var out []byte
		buf := make([]byte, 64)
		for {
			n, err := r.Read(buf)
			if n > 0 {
				if n > 13 {
					t.Fatalf("read of %d bytes exceeds MaxRead", n)
				}
				ns = append(ns, n)
				out = append(out, buf[:n]...)
			}
			if err == io.EOF {
				return ns, out
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	ns1, out1 := sizes(99)
	ns2, out2 := sizes(99)
	if !bytes.Equal(out1, src) {
		t.Fatal("short reads lost or reordered bytes")
	}
	if !bytes.Equal(out2, src) || len(ns1) != len(ns2) {
		t.Fatal("same seed produced different read schedules")
	}
	for i := range ns1 {
		if ns1[i] != ns2[i] {
			t.Fatalf("read %d: size %d vs %d from the same seed", i, ns1[i], ns2[i])
		}
	}
}

// TestObserverPanicSchedule: the observer panics on exactly the one
// scheduled per-shard event of the target worker and leaves every other
// shard alone.
func TestObserverPanicSchedule(t *testing.T) {
	obs := New(5).Observer(WorkerFaults{
		PanicWorker: 1, PanicAfter: 2,
		SlowWorker: -1,
	})
	fire := func(worker int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		obs(worker, cpu.Event{})
		return false
	}
	for i := 0; i < 10; i++ {
		if fire(0) {
			t.Fatalf("untargeted worker panicked on event %d", i)
		}
	}
	want := []bool{false, false, true, false, false, false}
	for i, w := range want {
		if got := fire(1); got != w {
			t.Fatalf("target worker event %d: panicked=%v, want %v", i+1, got, w)
		}
	}
}

// TestObserverDisabled: the zero-fault schedule is a no-op observer.
func TestObserverDisabled(t *testing.T) {
	obs := New(8).Observer(NoWorkerFaults())
	for i := 0; i < 100; i++ {
		obs(i%4, cpu.Event{})
	}
}
