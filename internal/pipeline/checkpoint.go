package pipeline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
)

// Pipeline checkpoint format — a versioned, deterministic binary snapshot
// of the whole analyzer, in the same magic/length-prefix style as the
// trace codec. Layout (little-endian):
//
//	magic   [8]byte  "PIFTCKP1"
//	length  u64      payload byte count
//	payload          events u64, workers u32,
//	                 workers × { snapLen u64, snapshot (core tracker snapshot) }
//	crc     u32      CRC-32C (Castagnoli) of the payload
//
// The payload pairs the resumable stream offset (events dispatched, all
// analyzed — WriteCheckpoint quiesces first) with one core tracker
// snapshot per shard. Because the PID→shard map is a pure function of the
// PID and the worker count, restoring the same worker count puts every
// snapshot back in front of exactly the events its shard would have seen,
// so a restored pipeline fed the remaining stream produces byte-identical
// merged stats and verdicts to an uninterrupted run. The length/CRC frame
// lets Restore reject torn or bit-flipped checkpoint files outright
// instead of resuming from garbage.

var ckptMagic = [8]byte{'P', 'I', 'F', 'T', 'C', 'K', 'P', '1'}

// ckptMaxPayload caps the declared payload size (1 GiB) so a corrupt
// length field fails before anything is read.
const ckptMaxPayload = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteCheckpoint quiesces the pipeline (Sync) and serializes its state.
// It refuses to checkpoint a pipeline any shard of which has faulted —
// such state has already diverged from the uninterrupted run, and a
// checkpoint must only ever capture states the clean execution passes
// through. The pipeline remains usable afterwards.
func (p *Pipeline) WriteCheckpoint(w io.Writer) (int64, error) {
	p.Sync()
	for _, wk := range p.workers {
		// Safe to read after Sync: the WaitGroup edge ordered all worker
		// writes before this goroutine's reads.
		if wk.err != nil {
			return 0, fmt.Errorf("pipeline: checkpoint refused: shard %d faulted: %w", wk.idx, wk.err)
		}
	}
	var payload bytes.Buffer
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], p.events)
	payload.Write(scratch[:])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(p.workers)))
	payload.Write(scratch[:4])
	for _, wk := range p.workers {
		var snap bytes.Buffer
		if _, err := wk.tr.WriteSnapshot(&snap); err != nil {
			return 0, fmt.Errorf("pipeline: checkpointing shard %d: %w", wk.idx, err)
		}
		binary.LittleEndian.PutUint64(scratch[:], uint64(snap.Len()))
		payload.Write(scratch[:])
		payload.Write(snap.Bytes())
	}

	var n int64
	count := func(written int, err error) error {
		n += int64(written)
		return err
	}
	if err := count(w.Write(ckptMagic[:])); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint64(scratch[:], uint64(payload.Len()))
	if err := count(w.Write(scratch[:])); err != nil {
		return n, err
	}
	if err := count(w.Write(payload.Bytes())); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc32.Checksum(payload.Bytes(), crcTable))
	if err := count(w.Write(scratch[:4])); err != nil {
		return n, err
	}
	p.m.Checkpoints.Inc()
	p.m.CheckpointBytes.Add(uint64(n))
	return n, nil
}

// Restore decodes a checkpoint into one tracker per shard and returns
// NewSeeded over them at the checkpoint's offset. The worker count and
// tracker configuration are authoritative in the checkpoint; opts may
// leave them zero, and conflicting values are an error (resuming under
// different parameters would break the resume-equals-uninterrupted
// guarantee). The snapshot codec restores the unbounded IdealStore.
// Resume with DrainTrace on the same bytes, or Skip the stream to
// Offset() and feed the rest through EventBatch; either way the merged
// result is byte-identical to an uninterrupted run.
func Restore(r io.Reader, opts Options) (*Pipeline, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint magic: %w", unexpectEOF(err))
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("pipeline: bad checkpoint magic %q", magic[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint length: %w", unexpectEOF(err))
	}
	length := binary.LittleEndian.Uint64(hdr[:])
	if length > ckptMaxPayload {
		return nil, fmt.Errorf("pipeline: implausible checkpoint payload %d bytes", length)
	}
	// The buffer grows with the bytes that arrive, not the length claimed.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err == nil && uint64(len(payload)) < length {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint payload: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint crc: %w", unexpectEOF(err))
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, fmt.Errorf("pipeline: checkpoint crc mismatch: computed %08x, stored %08x", got, want)
	}

	body := bytes.NewReader(payload)
	var events uint64
	var workers uint32
	if err := binary.Read(body, binary.LittleEndian, &events); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint events: %w", unexpectEOF(err))
	}
	if err := binary.Read(body, binary.LittleEndian, &workers); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint worker count: %w", unexpectEOF(err))
	}
	if workers < 1 || workers > 1<<16 {
		return nil, fmt.Errorf("pipeline: implausible checkpoint worker count %d", workers)
	}
	trackers := make([]*core.Tracker, workers)
	for i := range trackers {
		var snapLen uint64
		if err := binary.Read(body, binary.LittleEndian, &snapLen); err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint shard %d length: %w", i, unexpectEOF(err))
		}
		if snapLen > uint64(body.Len()) {
			return nil, fmt.Errorf("pipeline: checkpoint shard %d overruns payload", i)
		}
		tr, err := core.ReadSnapshot(io.LimitReader(body, int64(snapLen)))
		if err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint shard %d: %w", i, err)
		}
		trackers[i] = tr
	}
	return NewSeeded(opts, trackers, events)
}

// unexpectEOF normalizes a clean-EOF short read into the truncation error
// it actually is: a checkpoint never validly ends early.
func unexpectEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
