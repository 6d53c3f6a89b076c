package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"

	"repro/internal/cpu"
)

// PIFTTRC3 — the block-compressed wire format. PIFTTRC1 spends a fixed
// 25 bytes on every event even though the stream is massively redundant:
// Seq is near-monotonic (front ends emit a per-process instruction
// counter that mostly steps by small increments), PIDs arrive in long
// context-switch runs, ranges are small and local, and kinds fit in two
// bits. At serving scale the tracker is no longer the binding resource —
// the bytes moved over HTTP and spilled to disk are — so the compressed
// format trades a little encode/decode arithmetic for a ~5x smaller
// stream.
//
// Layout (little-endian throughout):
//
//	magic   [8]byte  "PIFTTRC3"
//	count   uint64   total event count (same 16-byte header as v1)
//	blocks  until count events are covered, each:
//	  first uint64   absolute index of the block's first event
//	  count uint32   events in the block (1..65536)
//	  clen  uint32   payload length in bytes
//	  crc   uint32   CRC-32C (Castagnoli) of the payload
//	  payload clen bytes
//
// Each block payload is self-contained (every delta chain restarts at
// the block boundary) and column-oriented:
//
//	pid dictionary   uvarint n; n × uvarint pid        (first-appearance order)
//	pid runs         (uvarint dictIndex, uvarint runLen)… summing to count
//	kind/tag         count × uvarint(kind | zigzag(tag)<<2)
//	seq              count × uvarint(zigzag(seq delta)), chained per PID
//	range start      count × uvarint(zigzag(start delta)), chained per (PID, kind)
//	range length     count × uvarint(end-start)
//
// Every chain starts at 0 at the block boundary. Seq is a per-process
// instruction counter, so its deltas chain per PID. Range starts chain
// per PID and kind, four chains per dictionary entry: PIFT's window pairs
// a load with a store a few instructions later, usually a copy from one
// buffer into another, so a process's loads and its stores walk separate
// address streams. Chained per PID alone, every switch between the two
// kinds is a jump between the buffers, a 3-byte varint and a mispredicted
// branch in the decoder; chained per kind it is the stride within one
// buffer. The previous format, PIFTTRC2, chained range starts per PID
// alone; no decoder for it remains, so it is refused as a bad magic.
// DESIGN.md §12 has the measured delta sizes of both.
//
// Self-contained blocks are what keep the shard-owned ingest working at
// block granularity: an Index built from one cheap header walk locates
// any block by event index, so PlanRange still pre-splits a trace into
// per-reader segments by arithmetic — over block boundaries instead of a
// fixed record stride — and a segment reader starting mid-block decodes
// its containing block and discards the prefix. The per-block CRC plus
// the contiguity checks on block headers map every damaged stream onto
// the same taxonomy v1 uses: ErrTruncated, ErrCorrupt, ErrBadMagic,
// ErrTooLarge.

var traceMagicV2 = [8]byte{'P', 'I', 'F', 'T', 'T', 'R', 'C', '3'}

// Format names a trace wire format.
type Format uint8

const (
	// FormatV1 is the fixed-stride PIFTTRC1 format (25 bytes/event).
	FormatV1 Format = 1
	// FormatV2 is the block-compressed PIFTTRC3 format.
	FormatV2 Format = 2
)

func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// ParseFormat maps the CLI spelling of a wire format onto the constant.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "v1", "V1", "PIFTTRC1":
		return FormatV1, nil
	case "v2", "V2", "PIFTTRC3":
		return FormatV2, nil
	}
	return 0, fmt.Errorf("trace: unknown wire format %q (want v1 or v2)", s)
}

const (
	// blockHeaderSize is the fixed framing in front of every block.
	blockHeaderSize = 8 + 4 + 4 + 4

	// DefaultBlockEvents is the block size writers use unless told
	// otherwise: big enough to amortize the header and the delta-chain
	// restart, small enough that a block decodes into cache and a
	// resumable upload acks at fine granularity.
	DefaultBlockEvents = 4096

	// maxBlockEvents bounds a block's declared event count; a header
	// promising more is corrupt by construction (no writer emits it).
	maxBlockEvents = 1 << 16

	// maxBlockBytes bounds a block's declared payload length. Even a
	// pathological 65536-event block encodes far below this; honoring a
	// bigger claim would provoke a giant allocation, so it is classified
	// like the v1 header sanity cap.
	maxBlockBytes = 1 << 23
)

// castagnoli is the CRC-32C table; the Castagnoli polynomial has
// hardware support on every platform this runs on.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zigzag folds a signed delta into an unsigned varint-friendly value:
// small magnitudes of either sign stay small.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encScratch is a block encoder's reusable working state: the PID
// dictionary, each event's dictionary index, and the delta chains.
// Cleared per block, allocation-free once warm.
type encScratch struct {
	dict  map[uint32]uint64
	order []uint32
	idx   []uint16 // per-event dictionary index
	seq   []uint64 // per-dict-entry seq chain
	start []int64  // range-start chains, at 4*entry + kind
}

// resetU64 sizes s to n with every entry zero, reusing capacity.
func resetU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resetI64 sizes s to n with every entry zero, reusing capacity.
func resetI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// appendBlockPayload encodes evs as one self-contained block payload
// into sc-owned scratch, so a streaming writer allocates nothing per
// block once warm.
func appendBlockPayload(dst []byte, evs []cpu.Event, sc *encScratch) ([]byte, error) {
	for _, ev := range evs {
		if err := checkEvent(ev); err != nil {
			return dst, err
		}
	}
	// PID dictionary in first-appearance order, plus each event's
	// dictionary index — the per-PID delta chains below key on it.
	clear(sc.dict)
	sc.order = sc.order[:0]
	sc.idx = sc.idx[:0]
	for _, ev := range evs {
		id, ok := sc.dict[ev.PID]
		if !ok {
			id = uint64(len(sc.order))
			sc.dict[ev.PID] = id
			sc.order = append(sc.order, ev.PID)
		}
		sc.idx = append(sc.idx, uint16(id))
	}
	dst = binary.AppendUvarint(dst, uint64(len(sc.order)))
	for _, pid := range sc.order {
		dst = binary.AppendUvarint(dst, uint64(pid))
	}
	// PID runs.
	for i := 0; i < len(evs); {
		j := i + 1
		for j < len(evs) && evs[j].PID == evs[i].PID {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(sc.idx[i]))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	// Kind/tag, packed: the two kind bits below the zigzagged tag.
	for _, ev := range evs {
		dst = binary.AppendUvarint(dst, uint64(ev.Kind)|zigzag(int64(ev.Tag))<<2)
	}
	// Seq deltas, chained per PID: Seq is a per-process counter, so the
	// previous event of the same PID is the one a small step away.
	// uint64 subtraction wraps, so every (prev, seq) pair is
	// representable.
	sc.seq = resetU64(sc.seq, len(sc.order))
	for k, ev := range evs {
		d := sc.idx[k]
		dst = binary.AppendUvarint(dst, zigzag(int64(ev.Seq-sc.seq[d])))
		sc.seq[d] = ev.Seq
	}
	// Range-start deltas, chained per PID and kind: a process's loads
	// and stores walk separate buffers (signed: small magnitudes either
	// way).
	sc.start = resetI64(sc.start, 4*len(sc.order))
	for k, ev := range evs {
		d := 4*int(sc.idx[k]) + int(ev.Kind)
		dst = binary.AppendUvarint(dst, zigzag(int64(ev.Range.Start)-sc.start[d]))
		sc.start[d] = int64(ev.Range.Start)
	}
	// Range lengths.
	for _, ev := range evs {
		dst = binary.AppendUvarint(dst, uint64(ev.Range.End-ev.Range.Start))
	}
	return dst, nil
}

// getUvarint decodes one uvarint of b at index i, returning the value
// and the next index; a negative index reports a malformed or truncated
// varint. The single-byte fast path carries the hot decode loops.
func getUvarint(b []byte, i int) (uint64, int) {
	if i >= 0 && i < len(b) && b[i] < 0x80 {
		return uint64(b[i]), i + 1
	}
	if i < 0 || i > len(b) {
		return 0, -1
	}
	v, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, -1
	}
	return v, i + n
}

// decScratch is a block decoder's reusable working state: the decoded
// PID dictionary with each entry's keep decision, the run column
// (rejected runs coalesced), the run list of the range columns, the sink
// checks of counted runs, the PIDs of counted runs that register a
// source, and per dictionary entry the delta chains and the counts.
type decScratch struct {
	pids    []uint32
	mode    []keepMode
	counts  []entryCount
	runs    []blockRun
	ranges  []blockRun
	sinks   []sinkSlot
	sources []uint32
	seq     []uint64
	start   []int64
}

// entryCount is what a counted dictionary entry holds in one block: its
// memory accesses, the stores among them, and the index in the run list
// of its last run with a sink check (-1: none), past which no sink needs
// its seq chain.
type entryCount struct {
	mem, stores uint64
	lastSink    int
}

// blockRun is one entry of a decoded run column: n consecutive events of
// dictionary entry id, or, when skip is set, n consecutive events the
// decoder only steps over (rejected runs, and for the range columns also
// counted runs), coalesced. A kept run is decoded into dst from index
// at; a counted run holds sinks sink checks, listed in order in
// decScratch.sinks.
type blockRun struct {
	id    uint16
	skip  bool
	n     uint32
	at    uint32
	sinks uint32
}

// sinkSlot is one sink check of a counted run: its index k in the run
// and its slot at in dst.
type sinkSlot struct{ k, at uint32 }

// appendSkip adds n stepped-over events to runs, coalescing them into
// the last entry when that one is stepped over too.
func appendSkip(runs []blockRun, n uint32) []blockRun {
	if len(runs) > 0 && runs[len(runs)-1].skip {
		runs[len(runs)-1].n += n
		return runs
	}
	return append(runs, blockRun{skip: true, n: n})
}

// skipUvarints returns the index just past the n uvarints that start at
// b[i], or -1 when b ends first. Every uvarint ends at the first byte
// with its high bit clear, so stepping over n of them is counting n such
// terminator bytes, eight bytes per load. Malformed values (over-long or
// overflowing varints) are not detected here; only a decoder that keeps
// the values checks them.
func skipUvarints(b []byte, i, n int) int {
	const hi = 0x8080808080808080
	// While n is at least 32, the next 32 bytes hold at most n
	// terminators, so all of them can be counted without a check for the
	// n-th.
	for n >= 32 && i >= 0 && i+32 <= len(b) {
		w := b[i : i+32]
		n -= bits.OnesCount64(^binary.LittleEndian.Uint64(w)&hi) +
			bits.OnesCount64(^binary.LittleEndian.Uint64(w[8:])&hi) +
			bits.OnesCount64(^binary.LittleEndian.Uint64(w[16:])&hi) +
			bits.OnesCount64(^binary.LittleEndian.Uint64(w[24:])&hi)
		i += 32
	}
	for n > 0 && i >= 0 && i+8 <= len(b) {
		term := ^binary.LittleEndian.Uint64(b[i:]) & hi
		t := bits.OnesCount64(term)
		if t >= n {
			// The n-th terminator is in this word: clear the n-1 below it.
			for ; n > 1; n-- {
				term &= term - 1
			}
			return i + bits.TrailingZeros64(term)/8 + 1
		}
		n -= t
		i += 8
	}
	for ; n > 0; i++ {
		if i < 0 || i >= len(b) {
			return -1
		}
		if b[i] < 0x80 {
			n--
		}
	}
	return i
}

// checkUvarints returns the index just past the n uvarints that start at
// b[i], or -1 when one is malformed or b ends first: skipUvarints for
// values that nothing reads but that must be well formed. Checking is
// cheaper than decoding: a word whose eight bytes carry no continuation
// bit holds eight one-byte uvarints.
func checkUvarints(b []byte, i, n int) int {
	const hi = 0x8080808080808080
	for n > 0 && i >= 0 {
		if n >= 8 && i+8 <= len(b) && binary.LittleEndian.Uint64(b[i:])&hi == 0 {
			i, n = i+8, n-8
		} else if i < len(b) && b[i] < 0x80 {
			i, n = i+1, n-1
		} else {
			_, i = getUvarint(b, i)
			n--
		}
	}
	return i
}

// decodeBlockPayload decodes a verified (CRC-checked) block payload of
// len(dst) events. It decodes the runs of the PIDs k keeps, packed into
// the front of dst in stream order, and steps over the rest; a plain
// keeper decodes every event. Of a PID k counts (keepCounted) it puts
// only the sink checks into dst, with ProjectedRange, and adds its loads
// and stores up in sc.counts, unless the PID registers a source in the
// block, which keeps it whole. It returns how many events it wrote.
// first is the block's absolute first event index, used only for error
// reporting. Every structural impossibility — dictionary indexes out of
// range, runs not summing to the count, trailing or missing bytes — and,
// for the values it decodes or counts, every malformed varint and every
// accumulated range leaving uint32 is ErrCorrupt: the bytes arrived
// intact-length and CRC-clean but cannot be a block this package wrote.
func decodeBlockPayload(payload []byte, dst []cpu.Event, first uint64, sc *decScratch, k keeper) (int, error) {
	corrupt := func(what string) error {
		return fmt.Errorf("trace: block at event %d: %w: %s", first, ErrCorrupt, what)
	}
	ndict, i := getUvarint(payload, 0)
	if i < 0 || ndict == 0 || ndict > uint64(len(dst)) {
		return 0, corrupt("bad PID dictionary size")
	}
	if cap(sc.pids) < int(ndict) {
		sc.pids = make([]uint32, ndict)
		sc.mode = make([]keepMode, ndict)
		sc.counts = make([]entryCount, ndict)
	}
	pids, mode := sc.pids[:ndict], sc.mode[:ndict]
	sc.pids, sc.mode, sc.counts = pids, mode, sc.counts[:ndict]
	counted := false
	for e := range pids {
		var v uint64
		v, i = getUvarint(payload, i)
		if i < 0 || v > 1<<32-1 {
			return 0, corrupt("bad PID dictionary entry")
		}
		pids[e] = uint32(v)
		mode[e] = k.mode(uint32(v))
		counted = counted || mode[e] == keepCounted
	}
	// The run column, rejected neighbours coalesced into one step.
	runs := sc.runs[:0]
	for filled := 0; filled < len(dst); {
		var id, n uint64
		id, i = getUvarint(payload, i)
		n, i = getUvarint(payload, i)
		if i < 0 || id >= ndict || n == 0 || n > uint64(len(dst)-filled) {
			return 0, corrupt("bad PID run")
		}
		filled += int(n)
		if mode[id] == reject {
			runs = appendSkip(runs, uint32(n))
		} else {
			runs = append(runs, blockRun{id: uint16(id), n: uint32(n)})
		}
	}
	sc.runs = runs
	sc.seq = resetU64(sc.seq, int(ndict))
	sc.start = resetI64(sc.start, 4*int(ndict))
	kinds := i
	out, i := sc.kindColumn(payload, kinds, dst)
	if i >= 0 && len(sc.sources) > 0 {
		// Taint enters a process only through its own source
		// registration, so a counted PID with one in the block is kept
		// whole, in every dictionary entry that names it, and the block
		// is laid out again without counting it.
		sc.demote()
		out, i = sc.kindColumn(payload, kinds, dst)
	}
	if i < 0 {
		return 0, corrupt("bad kind/tag column")
	}
	if i = sc.seqColumn(payload, i, dst); i < 0 {
		return 0, corrupt("bad seq column")
	}
	if counted {
		runs = sc.rangeRuns()
	}
	i, what := rangeColumns(payload, i, runs, dst, sc.start)
	if i < 0 {
		return 0, corrupt(what)
	} else if i != len(payload) {
		return 0, corrupt("trailing bytes after the last column")
	}
	return out, nil
}

// demote keeps whole, in every dictionary entry that names it, each
// counted PID in sc.sources.
func (sc *decScratch) demote() {
	slices.Sort(sc.sources)
	for e, m := range sc.mode {
		if m != keepCounted {
			continue
		}
		if _, src := slices.BinarySearch(sc.sources, sc.pids[e]); src {
			sc.mode[e] = keepWhole
		}
	}
}

// report hands each counted entry's loads and stores to p.
func (sc *decScratch) report(p Projector) {
	for e, c := range sc.counts {
		if sc.mode[e] == keepCounted && c.mem > 0 {
			p.Count(sc.pids[e], c.mem-c.stores, c.stores)
		}
	}
}

// kindColumn decodes the kind/tag column from payload[i] and lays the
// block's kept events out in dst in stream order: a kept run's events
// from the run's slot at, with their PIDs, kinds and tags, and a counted
// run's sink checks, while its loads and stores go to its entry's count.
// A counted run that registers a source adds its PID to sc.sources. It
// returns how many events it laid out and the index past the column, or
// -1.
func (sc *decScratch) kindColumn(payload []byte, i int, dst []cpu.Event) (int, int) {
	sc.sinks, sc.sources = sc.sinks[:0], sc.sources[:0]
	for e := range sc.counts {
		sc.counts[e] = entryCount{lastSink: -1}
	}
	out := 0
	for ri := range sc.runs {
		r := &sc.runs[ri]
		switch {
		case r.skip:
			i = skipUvarints(payload, i, int(r.n))
		case sc.mode[r.id] == keepWhole:
			r.at = uint32(out)
			i = kindTagRun(payload, i, dst[out:out+int(r.n)], sc.pids[r.id])
			out += int(r.n)
		default:
			sinks := len(sc.sinks)
			i, out = sc.countRun(payload, i, ri, dst, out)
			r.sinks = uint32(len(sc.sinks) - sinks)
		}
		if i < 0 {
			return 0, -1
		}
	}
	return out, i
}

// countRun steps over the kind/tag values of the counted run sc.runs[ri]
// from payload[i], checking each. It adds the run's loads and stores to
// its entry's count, lays its sink checks out in dst from slot out, and
// notes a source registration. It returns the index past the run's
// values, or -1, and the next free slot of dst.
func (sc *decScratch) countRun(payload []byte, i, ri int, dst []cpu.Event, out int) (int, int) {
	r := sc.runs[ri]
	c := &sc.counts[r.id]
	n := int(r.n)
	for k := 0; ; k++ {
		next, m, stores := countMem(payload, i, n-k)
		i, k = next, k+m
		c.mem += uint64(m)
		c.stores += stores
		if k == n {
			return i, out
		}
		// A sink check, a source registration, or a load or store whose
		// value takes more than one byte.
		var v uint64
		if v, i = getUvarint(payload, i); i < 0 {
			return -1, out
		}
		switch cpu.EventKind(v & 3) {
		case cpu.EvSinkCheck:
			dst[out] = cpu.Event{Kind: cpu.EvSinkCheck, PID: sc.pids[r.id], Range: ProjectedRange, Tag: int(unzigzag(v >> 2))}
			sc.sinks = append(sc.sinks, sinkSlot{k: uint32(k), at: uint32(out)})
			c.lastSink = ri
			out++
		case cpu.EvSourceRegister:
			sc.sources = append(sc.sources, sc.pids[r.id])
		default:
			c.mem++
			c.stores += v & 1
		}
	}
}

// countMem steps over the leading one-byte load and store values among
// the n kind/tag values from b[i] (i >= 0), eight per load while a word
// holds neither a continuation bit nor a kind with bit 1 set (a source
// or a sink), and returns the index past them, how many there were and
// how many of them are stores. A load's kind is 0 and a store's 1, so
// the stores are the sum of the kinds' low bits, which costs no branch
// on the program's random mix of the two.
func countMem(b []byte, i, n int) (int, int, uint64) {
	const (
		lo   = 0x0101010101010101
		rare = 0x8282828282828282
	)
	m := 0
	var stores uint64
	for ; m+8 <= n && i+8 <= len(b); m, i = m+8, i+8 {
		w := binary.LittleEndian.Uint64(b[i:])
		if w&rare != 0 {
			break
		}
		stores += (w & lo) * lo >> 56
	}
	for ; m < n && i < len(b) && b[i]&0x82 == 0; m, i = m+1, i+1 {
		stores += uint64(b[i] & 1)
	}
	return i, m, stores
}

// seqColumn decodes the seq column from payload[i]. A kept run's deltas
// continue its entry's chain (sc.seq, zero at the block start) into its
// events, and the chain is stored back at the run's end. A counted run's
// deltas are checked, and summed only as far as a sink check of its
// entry needs the chain: into the run's own sink checks, and through the
// whole run when a later run of the entry holds one. It returns the
// index past the column, or -1.
func (sc *decScratch) seqColumn(payload []byte, i int, dst []cpu.Event) int {
	seq, sinks := sc.seq, sc.sinks
	for ri, r := range sc.runs {
		switch {
		case r.skip:
			i = skipUvarints(payload, i, int(r.n))
		case sc.mode[r.id] == keepWhole:
			i, seq[r.id] = seqRun(payload, i, dst[r.at:r.at+r.n], seq[r.id])
		default:
			done := 0
			for _, s := range sinks[:r.sinks] {
				if i, seq[r.id] = seqSum(payload, i, int(s.k)+1-done, seq[r.id]); i < 0 {
					return -1
				}
				dst[s.at].Seq = seq[r.id]
				done = int(s.k) + 1
			}
			sinks = sinks[r.sinks:]
			if ri < sc.counts[r.id].lastSink {
				i, seq[r.id] = seqSum(payload, i, int(r.n)-done, seq[r.id])
			} else {
				i = checkUvarints(payload, i, int(r.n)-done)
			}
		}
		if i < 0 {
			return -1
		}
	}
	return i
}

// seqSum adds n zigzagged seq deltas from payload[i] to seq, checking
// each, and returns the index past them, or -1 if one is malformed, and
// the sum.
func seqSum(payload []byte, i, n int, seq uint64) (int, uint64) {
	for ; n > 0 && i >= 0; n-- {
		var v uint64
		if uint(i) < uint(len(payload)) && payload[i] < 0x80 {
			v = uint64(payload[i])
			i++
		} else {
			v, i = getUvarint(payload, i)
		}
		seq += uint64(unzigzag(v))
	}
	return i, seq
}

// rangeRuns returns the run list of the two range columns: the counted
// runs are stepped over, coalesced with their stepped-over neighbours.
func (sc *decScratch) rangeRuns() []blockRun {
	ranges := sc.ranges[:0]
	for _, r := range sc.runs {
		if r.skip || sc.mode[r.id] == keepCounted {
			ranges = appendSkip(ranges, r.n)
		} else {
			ranges = append(ranges, r)
		}
	}
	sc.ranges = ranges
	return ranges
}

// rangeColumns decodes the range-start and range-length columns from
// payload[i], walking the runs once per column: a skip run is stepped
// over whole, and a kept run's slots of dst go to the column's run
// decoder. The range-start deltas chain per dictionary entry and kind
// (start, four chains per entry at 4*entry + kind, zero at the block
// start). It returns the index past the last column, or -1 and what was
// wrong.
func rangeColumns(payload []byte, i int, runs []blockRun, dst []cpu.Event, start []int64) (int, string) {
	for _, r := range runs {
		ok := true
		if r.skip {
			i = skipUvarints(payload, i, int(r.n))
		} else {
			i, ok = startRun(payload, i, dst[r.at:r.at+r.n], (*[4]int64)(start[4*int(r.id):]))
		}
		if i < 0 {
			return -1, "bad range-start column"
		}
		if !ok {
			return -1, "range start outside the address space"
		}
	}
	for _, r := range runs {
		ok := true
		if r.skip {
			i = skipUvarints(payload, i, int(r.n))
		} else {
			i, ok = lengthRun(payload, i, dst[r.at:r.at+r.n])
		}
		if i < 0 {
			return -1, "bad range-length column"
		}
		if !ok {
			return -1, "range end outside the address space"
		}
	}
	return i, ""
}

// The run decoders (kindTagRun, seqRun, startRun, lengthRun) decode one
// kept run's values of one column. A run decoder is a separate function
// so that its loop, like a flat loop over the block, keeps its counter
// and value in registers; it returns -1 on a malformed varint and, for
// the range columns, false on a range outside the address space.
// getUvarint is too big for the inliner (cost ~127 vs the 80 budget),
// and a non-inlined call per column per event is most of the decode
// cost, so each run decoder carries 1/2/3-byte fast paths inline — the
// uint(i)+k < uint(len) compares both guard the loads and eliminate the
// bounds checks, and three bytes cover every varint the delta chains
// produce in practice (a 64 KiB-arena start delta zigzags into 17 bits)
// — with only longer or payload-end varints taking the call. Each
// later branch is only reached with the previous bytes' continuation
// bits set, so the masks are exact.

// kindTagRun decodes a kept run's kind/tag values into its events, with
// their PID.
func kindTagRun(payload []byte, i int, run []cpu.Event, pid uint32) int {
	for k := range run {
		var v uint64
		if uint(i) < uint(len(payload)) && payload[i] < 0x80 {
			v = uint64(payload[i])
			i++
		} else if uint(i)+1 < uint(len(payload)) && payload[i+1] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1])<<7
			i += 2
		} else if uint(i)+2 < uint(len(payload)) && payload[i+2] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1]&0x7f)<<7 | uint64(payload[i+2])<<14
			i += 3
		} else if v, i = getUvarint(payload, i); i < 0 {
			return -1
		}
		run[k].Kind = cpu.EventKind(v & 3)
		run[k].PID = pid
		run[k].Tag = int(unzigzag(v >> 2))
	}
	return i
}

func seqRun(payload []byte, i int, run []cpu.Event, seq uint64) (int, uint64) {
	for k := range run {
		var v uint64
		if uint(i) < uint(len(payload)) && payload[i] < 0x80 {
			v = uint64(payload[i])
			i++
		} else if uint(i)+1 < uint(len(payload)) && payload[i+1] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1])<<7
			i += 2
		} else if uint(i)+2 < uint(len(payload)) && payload[i+2] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1]&0x7f)<<7 | uint64(payload[i+2])<<14
			i += 3
		} else if v, i = getUvarint(payload, i); i < 0 {
			return -1, 0
		}
		seq += uint64(unzigzag(v))
		run[k].Seq = seq
	}
	return i, seq
}

// startRun continues the run's entry's range-start chains, one per kind,
// which kindTagRun has decoded into the run's events.
func startRun(payload []byte, i int, run []cpu.Event, start *[4]int64) (int, bool) {
	for k := range run {
		var v uint64
		if uint(i) < uint(len(payload)) && payload[i] < 0x80 {
			v = uint64(payload[i])
			i++
		} else if uint(i)+1 < uint(len(payload)) && payload[i+1] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1])<<7
			i += 2
		} else if uint(i)+2 < uint(len(payload)) && payload[i+2] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1]&0x7f)<<7 | uint64(payload[i+2])<<14
			i += 3
		} else if v, i = getUvarint(payload, i); i < 0 {
			return -1, true
		}
		c := &start[run[k].Kind&3]
		s := *c + unzigzag(v)
		if s < 0 || s > 1<<32-1 {
			return i, false
		}
		*c = s
		run[k].Range.Start = uint32(s)
	}
	return i, true
}

func lengthRun(payload []byte, i int, run []cpu.Event) (int, bool) {
	for k := range run {
		var v uint64
		if uint(i) < uint(len(payload)) && payload[i] < 0x80 {
			v = uint64(payload[i])
			i++
		} else if uint(i)+1 < uint(len(payload)) && payload[i+1] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1])<<7
			i += 2
		} else if uint(i)+2 < uint(len(payload)) && payload[i+2] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1]&0x7f)<<7 | uint64(payload[i+2])<<14
			i += 3
		} else if v, i = getUvarint(payload, i); i < 0 {
			return -1, true
		}
		end := int64(run[k].Range.Start) + int64(v)
		if v > 1<<32-1 || end > 1<<32-1 {
			return i, false
		}
		run[k].Range.End = uint32(end)
	}
	return i, true
}

// BlockWriter streams a PIFTTRC3 trace: events appended one at a time
// are framed into blocks and written through as each fills. The total
// event count must be known up front — it lives in the 16-byte header,
// exactly like v1 — and Close fails if the appended count disagrees.
type BlockWriter struct {
	w           *bufio.Writer
	total       uint64
	written     uint64 // events appended so far
	flushed     uint64 // events already framed into blocks
	blockEvents int
	evs         []cpu.Event
	payload     []byte
	sc          encScratch
	n           int64 // wire bytes emitted
	err         error
}

// NewBlockWriter starts a v2 stream of exactly total events on w.
// blockEvents <= 0 selects DefaultBlockEvents; values above the format's
// block cap are clamped to it.
func NewBlockWriter(w io.Writer, total uint64, blockEvents int) *BlockWriter {
	if blockEvents <= 0 {
		blockEvents = DefaultBlockEvents
	}
	if blockEvents > maxBlockEvents {
		blockEvents = maxBlockEvents
	}
	bw := &BlockWriter{
		w:           bufio.NewWriter(w),
		total:       total,
		blockEvents: blockEvents,
		evs:         make([]cpu.Event, 0, blockEvents),
		sc:          encScratch{dict: make(map[uint32]uint64)},
	}
	var hdr [HeaderSize]byte
	copy(hdr[:], traceMagicV2[:])
	binary.LittleEndian.PutUint64(hdr[8:], total)
	if _, err := bw.w.Write(hdr[:]); err != nil {
		bw.err = err
	}
	bw.n += HeaderSize
	return bw
}

// Append adds one event to the stream.
func (bw *BlockWriter) Append(ev cpu.Event) error {
	if bw.err != nil {
		return bw.err
	}
	if bw.written >= bw.total {
		bw.err = fmt.Errorf("trace: appending event %d beyond the declared count %d", bw.written, bw.total)
		return bw.err
	}
	bw.evs = append(bw.evs, ev)
	bw.written++
	if len(bw.evs) >= bw.blockEvents {
		bw.err = bw.flushBlock()
	}
	return bw.err
}

func (bw *BlockWriter) flushBlock() error {
	if len(bw.evs) == 0 {
		return nil
	}
	var err error
	bw.payload, err = appendBlockPayload(bw.payload[:0], bw.evs, &bw.sc)
	if err != nil {
		return err
	}
	var hdr [blockHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], bw.flushed)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(bw.evs)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(bw.payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(bw.payload, castagnoli))
	if _, err := bw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.w.Write(bw.payload); err != nil {
		return err
	}
	bw.n += int64(blockHeaderSize + len(bw.payload))
	bw.flushed += uint64(len(bw.evs))
	bw.evs = bw.evs[:0]
	return nil
}

// Written returns the wire bytes emitted so far.
func (bw *BlockWriter) Written() int64 { return bw.n }

// Close frames any partial final block and flushes the stream. It is an
// error to close before exactly the declared event count was appended —
// the header already promised it.
func (bw *BlockWriter) Close() error {
	if bw.err != nil {
		return bw.err
	}
	if bw.written != bw.total {
		bw.err = fmt.Errorf("trace: stream closed after %d of %d declared events", bw.written, bw.total)
		return bw.err
	}
	if err := bw.flushBlock(); err != nil {
		bw.err = err
		return err
	}
	if err := bw.w.Flush(); err != nil {
		bw.err = err
		return err
	}
	return nil
}

// WriteToFormat serializes the recorded trace in the chosen wire format;
// WriteToFormat(w, FormatV1) is exactly WriteTo.
func (r *Recorder) WriteToFormat(w io.Writer, f Format) (int64, error) {
	switch f {
	case FormatV1:
		return r.WriteTo(w)
	case FormatV2:
		bw := NewBlockWriter(w, uint64(len(r.Events)), DefaultBlockEvents)
		for _, ev := range r.Events {
			if err := bw.Append(ev); err != nil {
				return bw.Written(), err
			}
		}
		err := bw.Close()
		return bw.Written(), err
	}
	return 0, fmt.Errorf("trace: unknown wire format %v", f)
}

// Transcode re-encodes the trace stream in src into dst using the target
// format, streaming block by block — it never materializes the full
// event slice. The source format is sniffed from the magic, so both
// v1→v2 and v2→v1 (and identity) round trips work. Returns the event
// count transcoded.
func Transcode(dst io.Writer, src io.Reader, f Format) (uint64, error) {
	r, err := NewReader(src)
	if err != nil {
		return 0, err
	}
	buf := make([]cpu.Event, DefaultBlockEvents)
	var done uint64
	switch f {
	case FormatV2:
		bw := NewBlockWriter(dst, r.Len(), DefaultBlockEvents)
		for {
			n, rerr := r.NextBatch(buf)
			for _, ev := range buf[:n] {
				if err := bw.Append(ev); err != nil {
					return done, err
				}
			}
			done += uint64(n)
			if rerr == io.EOF {
				return done, bw.Close()
			}
			if rerr != nil {
				return done, rerr
			}
		}
	case FormatV1:
		w := bufio.NewWriter(dst)
		var hdr [HeaderSize]byte
		copy(hdr[:], traceMagic[:])
		binary.LittleEndian.PutUint64(hdr[8:], r.Len())
		if _, err := w.Write(hdr[:]); err != nil {
			return done, err
		}
		var rec [eventWireSize]byte
		for {
			n, rerr := r.NextBatch(buf)
			for _, ev := range buf[:n] {
				if err := putEventV1(rec[:], ev); err != nil {
					return done, err
				}
				if _, err := w.Write(rec[:]); err != nil {
					return done, err
				}
			}
			done += uint64(n)
			if rerr == io.EOF {
				return done, w.Flush()
			}
			if rerr != nil {
				return done, rerr
			}
		}
	}
	return 0, fmt.Errorf("trace: unknown wire format %v", f)
}
