package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/cpu"
)

// Binary trace format — the stand-in for the gem5 trace files the paper's
// authors fed to "the PIFT analysis code". Layout (little-endian):
//
//	magic   [8]byte  "PIFTTRC1"
//	count   uint64
//	events  count × { kind u8, pid u32, seq u64, start u32, end u32, tag i32 }
//
// Traces round-trip exactly; ReadFrom validates the magic and bounds.

var traceMagic = [8]byte{'P', 'I', 'F', 'T', 'T', 'R', 'C', '1'}

// eventWireSize is the per-event record size.
const eventWireSize = 1 + 4 + 8 + 4 + 4 + 4

// HeaderSize and EventSize expose the wire layout for offset arithmetic:
// event i of a serialized trace begins at byte HeaderSize + i*EventSize.
// Checkpoint/resume tooling and fault injectors use these to map an event
// index to a byte position without decoding.
const (
	HeaderSize = 8 + 8 // magic + declared count
	EventSize  = eventWireSize
)

// WriteTo serializes the recorded trace. It implements io.WriterTo.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return written, err
	}
	written += 8
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(r.Events)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return written, err
	}
	written += 8
	var rec [eventWireSize]byte
	for _, ev := range r.Events {
		if err := putEventV1(rec[:], ev); err != nil {
			return written, err
		}
		if _, err := bw.Write(rec[:]); err != nil {
			return written, err
		}
		written += eventWireSize
	}
	return written, bw.Flush()
}

// checkEvent refuses an event that a trace cannot carry as it is: an
// unknown kind or an inverted range, which every reader rejects, and a
// Tag outside int32, which PIFTTRC1 (and a PIFTSNP1 snapshot) stores in
// 32 bits. Every writer calls it, so no format changes a tag another
// format keeps.
func checkEvent(ev cpu.Event) error {
	if ev.Kind > cpu.EvSinkCheck {
		return fmt.Errorf("trace: cannot encode unknown event kind %d", ev.Kind)
	}
	if ev.Range.End < ev.Range.Start {
		return fmt.Errorf("trace: cannot encode inverted range [%d,%d)", ev.Range.Start, ev.Range.End)
	}
	if ev.Tag != int(int32(ev.Tag)) {
		return fmt.Errorf("trace: cannot encode tag %d outside int32", ev.Tag)
	}
	return nil
}

// putEventV1 encodes one fixed-stride PIFTTRC1 record into rec, which
// must be at least eventWireSize bytes, refusing what checkEvent refuses.
func putEventV1(rec []byte, ev cpu.Event) error {
	if err := checkEvent(ev); err != nil {
		return err
	}
	rec[0] = byte(ev.Kind)
	binary.LittleEndian.PutUint32(rec[1:], ev.PID)
	binary.LittleEndian.PutUint64(rec[5:], ev.Seq)
	binary.LittleEndian.PutUint32(rec[13:], ev.Range.Start)
	binary.LittleEndian.PutUint32(rec[17:], ev.Range.End)
	binary.LittleEndian.PutUint32(rec[21:], uint32(int32(ev.Tag)))
	return nil
}

// ReadFrom deserializes a trace written by WriteTo, materializing the full
// event slice. It is a thin wrapper over the streaming Reader; pipelines
// that should not hold whole traces in memory use NewReader directly.
func ReadFrom(r io.Reader) (*Recorder, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	// The header's count is only a claim until the records arrive: sizing
	// the slice by it would let a 16-byte file ask for 64 GiB. Cap the
	// hint and let append grow the slice as events actually decode.
	out := NewRecorder(int(min(sr.Len(), maxDecodeBatch)))
	for {
		ev, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out.Events = append(out.Events, ev)
	}
}
