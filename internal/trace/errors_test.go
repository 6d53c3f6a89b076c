package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// taxonomyTrace serializes a small valid trace for mutation.
func taxonomyTrace(t *testing.T, n int) []byte {
	t.Helper()
	rec := NewRecorder(n)
	for i := 0; i < n; i++ {
		rec.Event(cpu.Event{
			Kind:  cpu.EvStore,
			PID:   7,
			Seq:   uint64(i + 1),
			Range: mem.Range{Start: uint32(i * 4), End: uint32(i*4 + 4)},
		})
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func drain(raw []byte) error {
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	for {
		if _, err := r.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// TestErrorTaxonomy proves every decode failure carries exactly the typed
// sentinel the ingestion layer keys its HTTP status mapping on — and that
// truncations still satisfy the historical io.ErrUnexpectedEOF contract.
func TestErrorTaxonomy(t *testing.T) {
	raw := taxonomyTrace(t, 8)

	t.Run("clean", func(t *testing.T) {
		if err := drain(raw); err != nil {
			t.Fatalf("clean trace: %v", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		err := drain(raw[:len(raw)-5])
		if !errors.Is(err, ErrTruncated) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut trace err = %v, want ErrTruncated ∧ ErrUnexpectedEOF", err)
		}
		if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrBadMagic) {
			t.Fatalf("cut trace misclassified: %v", err)
		}
	})

	t.Run("truncated-header", func(t *testing.T) {
		for _, cut := range []int{0, 3, 8, 12} {
			if err := drain(raw[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("header cut %d err = %v, want ErrTruncated", cut, err)
			}
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xff
		if err := drain(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("bad magic err = %v, want ErrBadMagic", err)
		}
	})

	t.Run("too-large", func(t *testing.T) {
		big := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(big[8:], 1<<40)
		if err := drain(big); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("giant count err = %v, want ErrTooLarge", err)
		}
	})

	t.Run("corrupt-kind", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[HeaderSize+2*EventSize] = 0xee // record 2's kind byte
		err := drain(bad)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bad kind err = %v, want ErrCorrupt", err)
		}
		if errors.Is(err, ErrTruncated) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("corruption misclassified as truncation: %v", err)
		}
	})

	t.Run("corrupt-range", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		// Swap record 1's start/end words so End < Start.
		off := HeaderSize + 1*EventSize
		start := binary.LittleEndian.Uint32(bad[off+13:])
		end := binary.LittleEndian.Uint32(bad[off+17:])
		binary.LittleEndian.PutUint32(bad[off+13:], end+1)
		binary.LittleEndian.PutUint32(bad[off+17:], start)
		if err := drain(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("inverted range err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("batch-parity", func(t *testing.T) {
		// NextBatch must classify identically to Next.
		bad := append([]byte(nil), raw...)
		bad[HeaderSize+3*EventSize] = 0xee
		r, err := NewReader(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]cpu.Event, 64)
		_, berr := r.NextBatch(dst)
		if !errors.Is(berr, ErrCorrupt) {
			t.Fatalf("NextBatch corrupt err = %v, want ErrCorrupt", berr)
		}
		r2, err := NewReader(bytes.NewReader(raw[:len(raw)-1]))
		if err != nil {
			t.Fatal(err)
		}
		_, berr = r2.NextBatch(dst)
		if !errors.Is(berr, ErrTruncated) {
			t.Fatalf("NextBatch truncation err = %v, want ErrTruncated", berr)
		}
	})

	t.Run("skip", func(t *testing.T) {
		r, err := NewReader(bytes.NewReader(raw[:len(raw)-3]))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Skip(8); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Skip into cut err = %v, want ErrTruncated", err)
		}
	})
}

// TestReadFromHugeClaim: a bare header declaring 808 M events is a
// truncation, reported without first allocating for the claim.
func TestReadFromHugeClaim(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte(hugeClaimV1))); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}
