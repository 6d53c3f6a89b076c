package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/cpu"
)

// The PIFTTRC3 decode path. A v2 Reader decodes one block at a time into
// a reused scratch slice (d.pending) and serves Next/NextBatch/
// NextBatchKeep/NextBatchProject out of it, so after the first block
// grows the scratch the steady state allocates nothing — the same
// contract the v1 batch path has. Because blocks are self-contained, a reader positioned mid-block (a
// segment reader, or a resume Skip landing inside a block) decodes its
// containing block and discards the prefix; the extra work is bounded by
// one block per segment boundary.

// readBlockHeader reads and validates the next 20-byte block header.
// Contiguity (the block's first event index must be exactly where the
// stream stands) is what turns any reordered, duplicated, or spliced
// block into ErrCorrupt instead of silently misattributed events.
func (d *Reader) readBlockHeader() (first uint64, bcount, clen int, crc uint32, err error) {
	hdr := d.hdr[:] // a local array would escape through io.ReadFull
	if _, err := io.ReadFull(d.br, hdr); err != nil {
		// The file header declared more events, so running dry between
		// blocks or inside a block header is a truncation.
		return 0, 0, 0, 0, fmt.Errorf("trace: event %d: block header: %w", d.read, truncated(err))
	}
	first = binary.LittleEndian.Uint64(hdr[0:])
	count := binary.LittleEndian.Uint32(hdr[8:])
	length := binary.LittleEndian.Uint32(hdr[12:])
	crc = binary.LittleEndian.Uint32(hdr[16:])
	if first != d.nextBlock {
		return 0, 0, 0, 0, fmt.Errorf("trace: event %d: %w: block claims first event %d, want %d", d.read, ErrCorrupt, first, d.nextBlock)
	}
	if count == 0 || count > maxBlockEvents || first+uint64(count) > d.total {
		return 0, 0, 0, 0, fmt.Errorf("trace: event %d: %w: block claims %d events at %d of %d", d.read, ErrCorrupt, count, first, d.total)
	}
	if length > maxBlockBytes {
		return 0, 0, 0, 0, fmt.Errorf("trace: event %d: %w: block claims %d payload bytes", d.read, ErrTooLarge, length)
	}
	return first, int(count), int(length), crc, nil
}

// loadBlock reads, checksums, and decodes one block payload into
// d.pending: the events from the one the stream stands at (which can be
// mid-block for segment readers) to the reader's logical end or the
// block's, whichever comes first, whose PIDs k keeps. A block that the
// reader's range covers whole is decoded under k, stepping over rejected
// runs and counting the loads and stores of the processes k's projector
// answers quiet for, which it reports once the block has decoded; a
// block the range enters or leaves inside — a segment edge — is decoded
// whole and filtered by index, as a plain segment reader decodes it.
func (d *Reader) loadBlock(first uint64, bcount, clen int, crc uint32, k keeper) error {
	if cap(d.buf) < clen {
		d.buf = make([]byte, clen)
	}
	payload := d.buf[:clen]
	if _, err := io.ReadFull(d.br, payload); err != nil {
		return fmt.Errorf("trace: event %d: block payload: %w", d.read, truncated(err))
	}
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return fmt.Errorf("trace: block at event %d: %w: checksum mismatch", first, ErrCorrupt)
	}
	if cap(d.pending) < bcount {
		d.pending = make([]cpu.Event, bcount)
	}
	d.pending, d.pendPos = d.pending[:bcount], 0
	end := first + uint64(bcount)
	whole := d.read == first && d.count >= end
	blockKeep := k
	if !whole {
		blockKeep = keeper{}
	}
	n, err := decodeBlockPayload(payload, d.pending, first, &d.sc, blockKeep)
	if err != nil {
		d.pending = d.pending[:0]
		return err
	}
	if d.read < first || d.read >= end {
		d.pending = d.pending[:0]
		return fmt.Errorf("trace: block at event %d: %w: does not contain event %d", first, ErrCorrupt, d.read)
	}
	end = min(end, d.count)
	if !whole {
		n = 0
		for _, ev := range d.pending[d.read-first : end-first] {
			if k.keeps(ev.PID) {
				d.pending[n] = ev
				n++
			}
		}
	}
	d.pending = d.pending[:n]
	d.blockEnd = end
	d.nextBlock = first + uint64(bcount)
	if blockKeep.proj != nil {
		d.sc.report(blockKeep.proj)
	}
	return nil
}

// decodeBlock advances the stream to the next block and decodes it.
func (d *Reader) decodeBlock(k keeper) error {
	first, bcount, clen, crc, err := d.readBlockHeader()
	if err != nil {
		return err
	}
	return d.loadBlock(first, bcount, clen, crc, k)
}

func (d *Reader) nextV2() (cpu.Event, error) {
	if d.pendPos >= len(d.pending) {
		if err := d.decodeBlock(keeper{}); err != nil {
			return cpu.Event{}, err
		}
	}
	ev := d.pending[d.pendPos]
	d.pendPos++
	d.read++
	return ev, nil
}

// nextBatchV2 serves dst out of the current block, decoding the next one
// when the current one is used up. A plain read advances Offset per
// event; a filtered one cannot know where its kept events sit between
// the rejected ones, so it advances Offset past the block once the
// block's last kept event is returned, and moves on from a block with no
// kept events at once.
func (d *Reader) nextBatchV2(dst []cpu.Event, k keeper) (int, error) {
	for d.pendPos >= len(d.pending) {
		if d.read >= d.count {
			return 0, io.EOF
		}
		if err := d.decodeBlock(k); err != nil {
			return 0, err
		}
		if len(d.pending) == 0 {
			d.read = d.blockEnd
		}
	}
	n := copy(dst, d.pending[d.pendPos:])
	d.pendPos += n
	if k.all() {
		d.read += uint64(n)
	} else if d.pendPos == len(d.pending) {
		d.read = d.blockEnd
	}
	return n, nil
}

// skipV2 advances past n events. Whole blocks inside the skip are
// discarded by their declared payload length without checksum or decode —
// the same "resume trusts the checkpointing pass" contract v1's Skip has —
// and only a final partially-skipped block is actually decoded.
func (d *Reader) skipV2(n uint64) error {
	target := d.read + n
	for n > 0 {
		if d.pendPos < len(d.pending) {
			c := uint64(len(d.pending) - d.pendPos)
			if c > n {
				c = n
			}
			d.pendPos += int(c)
			d.read += c
			n -= c
			continue
		}
		first, bcount, clen, crc, err := d.readBlockHeader()
		if err != nil {
			return fmt.Errorf("trace: skipping to event %d: %w", target, err)
		}
		if uint64(bcount) <= n {
			if _, err := d.br.Discard(clen); err != nil {
				return fmt.Errorf("trace: skipping to event %d: %w", target, truncated(err))
			}
			d.read += uint64(bcount)
			n -= uint64(bcount)
			d.nextBlock = first + uint64(bcount)
			continue
		}
		if err := d.loadBlock(first, bcount, clen, crc, keeper{}); err != nil {
			return fmt.Errorf("trace: skipping to event %d: %w", target, err)
		}
	}
	return nil
}
