package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// taxonomyTraceV2 serializes a small multi-block v2 trace (blockEvents=8,
// so block structure shows up in a few hundred bytes) for mutation.
func taxonomyTraceV2(t *testing.T, n int) ([]byte, *Recorder) {
	t.Helper()
	rec := NewRecorder(n)
	for i := 0; i < n; i++ {
		rec.Event(cpu.Event{
			Kind:  cpu.EventKind(i % 4),
			PID:   uint32(1 + i/8),
			Seq:   uint64(i * 2),
			Range: mem.Range{Start: uint32(64 + i*4), End: uint32(64 + i*4 + 4)},
			Tag:   i % 3,
		})
	}
	var buf bytes.Buffer
	bw := NewBlockWriter(&buf, uint64(n), 8)
	for _, ev := range rec.Events {
		if err := bw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rec
}

// isSentinel reports whether err carries exactly one of the four typed
// sentinels the ingestion layer keys its HTTP status mapping on.
func isSentinel(err error) bool {
	n := 0
	for _, s := range []error{ErrTruncated, ErrCorrupt, ErrBadMagic, ErrTooLarge} {
		if errors.Is(err, s) {
			n++
		}
	}
	return n == 1
}

// TestV2TruncationSweep cuts a valid v2 trace at every byte boundary:
// each cut must fail as ErrTruncated ∧ io.ErrUnexpectedEOF, never a bare
// io.EOF, and the events delivered before the failure must be a prefix
// of the original stream.
func TestV2TruncationSweep(t *testing.T) {
	full, rec := taxonomyTraceV2(t, 30)
	for cut := 0; cut < len(full); cut++ {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			if !errors.Is(err, ErrTruncated) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: header err = %v, want ErrTruncated ∧ ErrUnexpectedEOF", cut, err)
			}
			continue
		}
		got, err := drainBatch(r, 5)
		if err == nil {
			t.Fatalf("cut %d: drain succeeded on truncated trace", cut)
		}
		if !errors.Is(err, ErrTruncated) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated ∧ ErrUnexpectedEOF", cut, err)
		}
		if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrBadMagic) || errors.Is(err, ErrTooLarge) {
			t.Fatalf("cut %d: truncation misclassified: %v", cut, err)
		}
		for i := range got {
			if got[i] != rec.Events[i] {
				t.Fatalf("cut %d: delivered event %d differs from the original", cut, i)
			}
		}
	}
}

// TestV2CorruptionSweep flips every byte of a valid v2 trace, one at a
// time: each flip must be caught — by the magic check, the header sanity
// bounds, the block chain validation, or the payload CRC — and must
// classify into exactly one taxonomy sentinel. Nothing may decode
// successfully and nothing may read as a clean end.
func TestV2CorruptionSweep(t *testing.T) {
	full, _ := taxonomyTraceV2(t, 30)
	for off := 0; off < len(full); off++ {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x80
		r, err := NewReader(bytes.NewReader(bad))
		if err == nil {
			_, err = drainBatch(r, 7)
		}
		if err == nil {
			t.Fatalf("flip at %d: corrupted trace decoded cleanly", off)
		}
		if !isSentinel(err) {
			t.Fatalf("flip at %d: err = %v, want exactly one taxonomy sentinel", off, err)
		}
	}
}

// reCRC rewrites block 0's clen and CRC after its payload was mutated,
// producing a stream that is checksum-clean but structurally wrong —
// the class of damage only the decoder's validation can catch.
func reCRC(raw []byte, payload []byte) []byte {
	out := append([]byte(nil), raw[:HeaderSize+blockHeaderSize]...)
	binary.LittleEndian.PutUint32(out[HeaderSize+12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[HeaderSize+16:], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// TestV2ErrorTaxonomy is the targeted classification matrix: each damage
// class must map onto the sentinel classifyIngest keys 400/422/413 on.
func TestV2ErrorTaxonomy(t *testing.T) {
	// A single-block stream whose payload layout is pinned by
	// TestV2GoldenBytes; payload spans [36, 36+39).
	rec := NewRecorder(6)
	rec.Event(cpu.Event{Kind: cpu.EvSourceRegister, PID: 7, Seq: 100, Range: mem.Range{Start: 4096, End: 4100}, Tag: 1})
	rec.Event(cpu.Event{Kind: cpu.EvLoad, PID: 7, Seq: 101, Range: mem.Range{Start: 4096, End: 4100}})
	rec.Event(cpu.Event{Kind: cpu.EvStore, PID: 7, Seq: 103, Range: mem.Range{Start: 4104, End: 4112}})
	rec.Event(cpu.Event{Kind: cpu.EvLoad, PID: 9, Seq: 50, Range: mem.Range{Start: 4104, End: 4112}})
	rec.Event(cpu.Event{Kind: cpu.EvSinkCheck, PID: 9, Seq: 52, Range: mem.Range{Start: 4104, End: 4108}, Tag: -3})
	rec.Event(cpu.Event{Kind: cpu.EvStore, PID: 7, Seq: 104, Range: mem.Range{Start: 4096, End: 4100}})
	var buf bytes.Buffer
	if _, err := rec.WriteToFormat(&buf, FormatV2); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	payload := func() []byte {
		return append([]byte(nil), raw[HeaderSize+blockHeaderSize:]...)
	}

	t.Run("clean", func(t *testing.T) {
		if err := drain(raw); err != nil {
			t.Fatal(err)
		}
	})

	// PIFTTRC2, the format this one replaced, has no decoder left: its
	// range starts chain per PID alone, so reading its blocks as these
	// would misplace every range.
	t.Run("bad-magic", func(t *testing.T) {
		for _, magic := range []string{"PIFTTRC2", "PIFTTRC4"} {
			bad := append([]byte(magic), raw[8:]...)
			if err := drain(bad); !errors.Is(err, ErrBadMagic) {
				t.Fatalf("%s: err = %v, want ErrBadMagic", magic, err)
			}
			if _, err := LoadIndex(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
				t.Fatalf("%s: LoadIndex err = %v, want ErrBadMagic", magic, err)
			}
		}
	})

	t.Run("too-large-count", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(bad[8:], 1<<40)
		if err := drain(bad); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
		if _, err := LoadIndex(bytes.NewReader(bad)); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("LoadIndex err = %v, want ErrTooLarge", err)
		}
	})

	t.Run("too-large-block", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(bad[HeaderSize+12:], maxBlockBytes+1)
		if err := drain(bad); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
		if _, err := LoadIndex(bytes.NewReader(bad)); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("LoadIndex err = %v, want ErrTooLarge", err)
		}
	})

	t.Run("corrupt-crc", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[HeaderSize+16] ^= 0xff
		err := drain(bad)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if errors.Is(err, ErrTruncated) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("corruption misclassified as truncation: %v", err)
		}
	})

	t.Run("corrupt-block-chain", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(bad[HeaderSize:], 3) // first ≠ 0
		if err := drain(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if _, err := LoadIndex(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("LoadIndex err = %v, want ErrCorrupt", err)
		}
	})

	// CRC-clean structural damage: the checksum is recomputed over the
	// mutated payload, so only the decoder's own validation stands.
	t.Run("corrupt-dict-size", func(t *testing.T) {
		p := payload()
		p[0] = 0 // empty PID dictionary in a 6-event block
		if err := drain(reCRC(raw, p)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("corrupt-dict-index", func(t *testing.T) {
		p := payload()
		p[3] = 0x75 // first run's dictionary index, far out of range
		if err := drain(reCRC(raw, p)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("corrupt-run-overflow", func(t *testing.T) {
		p := payload()
		p[4] = 0x40 // first run claims 64 events in a 6-event block
		if err := drain(reCRC(raw, p)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("corrupt-trailing-bytes", func(t *testing.T) {
		p := append(payload(), 0x00)
		if err := drain(reCRC(raw, p)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("corrupt-short-columns", func(t *testing.T) {
		p := payload()
		p = p[:len(p)-2]
		if err := drain(reCRC(raw, p)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("batch-parity", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[HeaderSize+16] ^= 0xff
		r, err := NewReader(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		if _, berr := r.NextBatch(make([]cpu.Event, 64)); !errors.Is(berr, ErrCorrupt) {
			t.Fatalf("NextBatch corrupt err = %v, want ErrCorrupt", berr)
		}
		r2, err := NewReader(bytes.NewReader(raw[:len(raw)-1]))
		if err != nil {
			t.Fatal(err)
		}
		if _, berr := r2.NextBatch(make([]cpu.Event, 64)); !errors.Is(berr, ErrTruncated) {
			t.Fatalf("NextBatch truncation err = %v, want ErrTruncated", berr)
		}
	})

	t.Run("skip-into-cut", func(t *testing.T) {
		multi, _ := taxonomyTraceV2(t, 30)
		r, err := NewReader(bytes.NewReader(multi[:len(multi)-3]))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Skip(30); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Skip into cut err = %v, want ErrTruncated", err)
		}
	})

	t.Run("index-truncated", func(t *testing.T) {
		// The index walk reads only block headers, so the cut must land
		// inside one (payload truncation is the decoder's to catch).
		multi, _ := taxonomyTraceV2(t, 30)
		idx, err := LoadIndex(bytes.NewReader(multi))
		if err != nil {
			t.Fatal(err)
		}
		cut := idx.blocks[len(idx.blocks)-1].off + 5
		if _, err := LoadIndex(bytes.NewReader(multi[:cut])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("LoadIndex err = %v, want ErrTruncated", err)
		}
	})
}
