package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// truncated lifts an end-of-source error into the ErrTruncated class.
// A bare io.EOF from the source is promoted to io.ErrUnexpectedEOF first
// (the header promised more bytes), and any unexpected-EOF-shaped error is
// additionally wrapped with ErrTruncated so callers can classify it; other
// source errors (a network reset, an injected fault) pass through intact.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	return err
}

// Reader streams events out of a serialized trace one at a time, so
// multi-gigabyte traces can feed an analysis pipeline without ever
// materializing the full []Event slice. It validates the header eagerly
// (in NewReader) and each record lazily (in Next).
//
// Error taxonomy: Next returns exactly io.EOF only at the clean end of
// the stream (all declared events decoded). A stream that ends early —
// mid-record or between records — is a truncation and reports
// io.ErrUnexpectedEOF (wrapped with the failing event index), never a
// bare io.EOF, so `err == io.EOF` loops cannot mistake a cut-off trace
// for a complete one.
type Reader struct {
	br    *bufio.Reader
	count uint64 // declared event count (a segment reader's logical end)
	read  uint64 // events decoded so far
	buf   []byte // block-read scratch, grown once and reused

	// PIFTTRC3 state; zero for a v1 stream.
	v2        bool
	total     uint64                // physical declared count (count can stop short of it)
	nextBlock uint64                // first event index of the next block on the stream
	hdr       [blockHeaderSize]byte // block-header scratch
	blockEnd  uint64                // one past the last event pending covers
	pending   []cpu.Event           // decoded events of the current block still to serve, reused
	pendPos   int                   // cursor into pending
	sc        decScratch            // dictionary/run/delta-chain scratch, reused
}

// NewReader wraps r, reading and validating the trace header. The wire
// format — PIFTTRC1 or PIFTTRC3 — is sniffed from the magic; everything
// after that (Next/NextBatch/Skip/Offset, the error taxonomy) behaves
// identically for both. The stream must then be drained with Next; the
// first call after the last event returns io.EOF.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		// There is no such thing as a valid empty trace: even zero events
		// serialize to a 16-byte header, so running dry here — including on
		// a zero-byte stream — is a truncation, not a clean end.
		return nil, fmt.Errorf("trace: reading magic: %w", truncated(err))
	}
	var v2 bool
	switch magic {
	case traceMagic:
	case traceMagicV2:
		v2 = true
	default:
		return nil, fmt.Errorf("trace: %w: bad magic %q", ErrBadMagic, magic[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		// The magic was present, so a missing count is a truncated
		// header, not a clean end of anything.
		return nil, fmt.Errorf("trace: reading count: %w", truncated(err))
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	const sanityCap = 1 << 31
	if count > sanityCap {
		return nil, fmt.Errorf("trace: %w: %d", ErrTooLarge, count)
	}
	return &Reader{br: br, count: count, v2: v2, total: count}, nil
}

// Format reports which wire format the stream carries.
func (d *Reader) Format() Format {
	if d.v2 {
		return FormatV2
	}
	return FormatV1
}

// Len returns the total event count declared by the trace header.
func (d *Reader) Len() uint64 { return d.count }

// Remaining returns how many events have not been decoded yet.
func (d *Reader) Remaining() uint64 { return d.count - d.read }

// Offset returns the resumable stream position: the number of events
// consumed so far (by Next or Skip). A pipeline checkpoint taken after
// event n pairs with Offset()==n; a fresh Reader over the same bytes plus
// Skip(n) continues the stream exactly where the checkpoint left it.
func (d *Reader) Offset() uint64 { return d.read }

// Skip discards the next n events without decoding them, advancing the
// stream to a checkpoint's resume offset in one buffered seek. Records
// skipped this way are not validated — resume trusts the pass that wrote
// the checkpoint to have decoded them already. Skipping past the declared
// event count, or into a stream physically shorter than its header
// promises, is a truncation error.
func (d *Reader) Skip(n uint64) error {
	if n > d.Remaining() {
		return fmt.Errorf("trace: skip %d events beyond remaining %d", n, d.Remaining())
	}
	if d.v2 {
		return d.skipV2(n)
	}
	// Discard in bounded chunks: int(n)*eventWireSize would overflow int
	// on 32-bit platforms for large n, and bufio.Discard takes an int.
	const skipChunk = 1 << 16 // events per Discard call
	target := d.read + n
	for n > 0 {
		c := n
		if c > skipChunk {
			c = skipChunk
		}
		if _, err := d.br.Discard(int(c) * eventWireSize); err != nil {
			return fmt.Errorf("trace: skipping to event %d: %w", target, truncated(err))
		}
		d.read += c
		n -= c
	}
	return nil
}

// maxDecodeBatch caps how many records one NextBatch call block-reads, so
// the scratch buffer stays modest (1.6 MiB) and the byte math can never
// overflow int even on 32-bit platforms.
const maxDecodeBatch = 1 << 16

// NextBatch decodes up to len(dst) events into dst with one block read and
// a tight decode loop, returning how many were produced. It is Next
// amortized: one io.ReadFull per batch instead of per record, with no
// allocations after the first call grows the reader's scratch buffer.
//
// The error taxonomy matches Next exactly. A clean end of stream returns
// (0, io.EOF) — never events alongside io.EOF. A truncated or corrupt
// stream returns every event decoded before the failure point together
// with the same error Next would have produced for the failing record, so
// callers that feed n events and then inspect err behave identically to a
// per-event Next loop.
func (d *Reader) NextBatch(dst []cpu.Event) (int, error) {
	return d.NextBatchKeep(dst, nil)
}

// NextBatchKeep is NextBatch restricted to the events whose PID keep
// accepts (a nil keep accepts every PID, which is NextBatch). The stream
// is consumed exactly as NextBatch consumes it — in order, with the same
// error taxonomy — and Offset counts every event consumed, kept or not,
// so a reader ends at the same Offset whatever it keeps. What keep
// changes is what is copied into dst and, on PIFTTRC3, what is checked:
// a PIFTTRC1 read still validates every record, but a PIFTTRC3 read
// steps over a rejected PID run without decoding its values, so damage
// inside a run that the block CRC does not catch surfaces only for
// readers that keep the run. Any failure a filtered read reports, a
// plain read over the same bytes reports too, with the same sentinel at
// the same Offset.
//
// A call returns at least one event unless the stream ends or fails;
// with a selective keep it may return fewer than len(dst) events before
// the end. Offset advances per record on PIFTTRC1 and, for a filtered
// PIFTTRC3 read, past a whole block once its last kept event has been
// returned. A reader serves either filtered reads or the plain ones
// (Next, NextBatch, Skip), not a mix.
func (d *Reader) NextBatchKeep(dst []cpu.Event, keep func(pid uint32) bool) (int, error) {
	return d.nextBatch(dst, keeper{keep: keep})
}

// ProjectedRange is the range of a sink check read without its ranges.
// Its end lies below its start, which no decoder produces for an event
// it reads whole.
var ProjectedRange = mem.Range{Start: 1, End: 0}

// A Projector tells a projected read which kept processes it may count
// instead of deliver, and receives the counts.
type Projector interface {
	// Quiet reports whether the read may count pid's loads and stores in
	// the block it has reached. It is asked once per kept PID per block,
	// before the reader delivers any of the block's events.
	Quiet(pid uint32) bool
	// Count receives the loads and stores of pid that the read counted
	// in one block, once the whole block has decoded cleanly and before
	// any of the block's events is delivered.
	Count(pid uint32, loads, stores uint64)
}

// NextBatchProject is NextBatchKeep that may count what it would
// deliver: in a PIFTTRC3 block the reader covers whole, a kept PID that
// p answers Quiet for, and that registers no source in the block, has
// its loads and stores reported to p.Count as two numbers instead of
// copied into dst. Only its sink checks are copied, in stream order among
// the other kept events, with ProjectedRange; its range-start and
// range-length values are stepped over as a rejected run's are. A PID
// with a source registration anywhere in the block, which the decoder
// learns from the kind column it decodes first, is kept whole in every
// run. A nil p is NextBatchKeep.
//
// A counted run's kind/tag and seq values are decoded and checked like a
// kept run's. Its range columns get the checks a rejected run gets, of
// their structure, alignment, CRC and the block's trailing bytes, and
// none of their values. So a projected read fails where the filtered
// read with the same keep fails, with the same sentinel at the same
// Offset, except that a malformed or out-of-address-space value in a
// range column it steps over goes unreported. PIFTTRC1 records, and the
// PIFTTRC3 blocks a segment reader enters or leaves inside, are read
// whole, and p is not asked there.
func (d *Reader) NextBatchProject(dst []cpu.Event, keep func(pid uint32) bool, p Projector) (int, error) {
	return d.nextBatch(dst, keeper{keep: keep, proj: p})
}

// keepMode is what a read does with one PID's events in one block.
type keepMode uint8

const (
	reject      keepMode = iota // step over the events
	keepCounted                 // count its loads and stores, keep its sink checks without ranges
	keepWhole                   // keep them whole
)

// keeper is a read's per-PID decision: the PIDs it keeps (nil keeps
// all) and the projector that may have some of them counted (nil: none).
type keeper struct {
	keep func(pid uint32) bool
	proj Projector
}

// all reports whether the read keeps every event whole.
func (k keeper) all() bool { return k.keep == nil && k.proj == nil }

// keeps reports whether the read keeps pid's events.
func (k keeper) keeps(pid uint32) bool { return k.keep == nil || k.keep(pid) }

// mode decides pid's events in a block the read covers whole.
func (k keeper) mode(pid uint32) keepMode {
	switch {
	case !k.keeps(pid):
		return reject
	case k.proj != nil && k.proj.Quiet(pid):
		return keepCounted
	}
	return keepWhole
}

func (d *Reader) nextBatch(dst []cpu.Event, k keeper) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if d.read >= d.count {
		return 0, io.EOF
	}
	if d.v2 {
		return d.nextBatchV2(dst, k)
	}
	for {
		n := uint64(len(dst))
		if n > maxDecodeBatch {
			n = maxDecodeBatch
		}
		if rem := d.count - d.read; n > rem {
			n = rem
		}
		need := int(n) * eventWireSize
		if cap(d.buf) < need {
			d.buf = make([]byte, need)
		}
		buf := d.buf[:need]
		m, rerr := io.ReadFull(d.br, buf)
		recs := buf[:m/eventWireSize*eventWireSize]
		decoded := 0
		for len(recs) > 0 {
			// The decision is asked once per PID run; a plain read
			// decodes the whole batch as one run.
			run, kept := len(recs), true
			if !k.all() {
				pid := binary.LittleEndian.Uint32(recs[1:])
				kept = k.keeps(pid)
				run = eventWireSize
				for run < len(recs) && binary.LittleEndian.Uint32(recs[run+1:]) == pid {
					run += eventWireSize
				}
			}
			ok, err := decodeV1(recs[:run], dst[decoded:], kept, d.read)
			d.read += uint64(ok)
			if kept {
				decoded += ok
			}
			if err != nil {
				return decoded, err
			}
			recs = recs[run:]
		}
		if rerr != nil {
			// The header declared more events, so running dry mid-batch —
			// on a record boundary or inside a record — is a truncation;
			// other source errors pass through as Next would surface them.
			return decoded, fmt.Errorf("trace: event %d: %w", d.read, truncated(rerr))
		}
		if decoded > 0 {
			return decoded, nil
		}
		if d.read >= d.count {
			return 0, io.EOF
		}
	}
}

// decodeV1 validates the PIFTTRC1 records in recs, the first of which is
// event index first, and decodes them into dst when kept is set. It
// returns how many records passed before the first bad one, with that
// one's error. Its loop makes no call that returns into it, so the loop
// keeps its state in registers.
func decodeV1(recs []byte, dst []cpu.Event, kept bool, first uint64) (int, error) {
	n := 0
	for ; len(recs) >= eventWireSize; recs = recs[eventWireSize:] {
		rec := recs[:eventWireSize]
		kind := cpu.EventKind(rec[0])
		if kind > cpu.EvSinkCheck {
			return n, fmt.Errorf("trace: event %d: %w: unknown kind %d", first+uint64(n), ErrCorrupt, kind)
		}
		start := binary.LittleEndian.Uint32(rec[13:])
		end := binary.LittleEndian.Uint32(rec[17:])
		if end < start {
			return n, fmt.Errorf("trace: event %d: %w: inverted range", first+uint64(n), ErrCorrupt)
		}
		if kept {
			dst[n] = cpu.Event{
				Kind:  kind,
				PID:   binary.LittleEndian.Uint32(rec[1:]),
				Seq:   binary.LittleEndian.Uint64(rec[5:]),
				Range: mem.Range{Start: start, End: end},
				Tag:   int(int32(binary.LittleEndian.Uint32(rec[21:]))),
			}
		}
		n++
	}
	return n, nil
}

// Next decodes and returns the next event. It returns io.EOF once all
// declared events have been read, and a descriptive error on truncated or
// corrupt records.
func (d *Reader) Next() (cpu.Event, error) {
	if d.read >= d.count {
		return cpu.Event{}, io.EOF
	}
	if d.v2 {
		return d.nextV2()
	}
	var rec [eventWireSize]byte
	if _, err := io.ReadFull(d.br, rec[:]); err != nil {
		// The header declared more events, so running dry here — whether
		// on a record boundary (ReadFull's io.EOF) or inside a record
		// (its io.ErrUnexpectedEOF) — is a truncated trace.
		return cpu.Event{}, fmt.Errorf("trace: event %d: %w", d.read, truncated(err))
	}
	kind := cpu.EventKind(rec[0])
	if kind > cpu.EvSinkCheck {
		return cpu.Event{}, fmt.Errorf("trace: event %d: %w: unknown kind %d", d.read, ErrCorrupt, kind)
	}
	start := binary.LittleEndian.Uint32(rec[13:])
	end := binary.LittleEndian.Uint32(rec[17:])
	if end < start {
		return cpu.Event{}, fmt.Errorf("trace: event %d: %w: inverted range", d.read, ErrCorrupt)
	}
	d.read++
	return cpu.Event{
		Kind:  kind,
		PID:   binary.LittleEndian.Uint32(rec[1:]),
		Seq:   binary.LittleEndian.Uint64(rec[5:]),
		Range: mem.Range{Start: start, End: end},
		Tag:   int(int32(binary.LittleEndian.Uint32(rec[21:]))),
	}, nil
}
