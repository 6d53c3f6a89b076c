package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/mem"
)

// Tracker snapshot format — the per-shard unit of the pipeline's
// checkpoint/restore machinery. A snapshot captures the complete analysis
// state of one tracker: the window configuration, the per-PID tainting
// windows of Algorithm 1, the per-PID range sets of the ideal taint store,
// the overhead statistics, and the sink verdicts recorded so far. Layout
// (little-endian, magic/length-prefix style matching the trace codec):
//
//	magic    [8]byte  "PIFTSNP1"
//	config   NI u64, NT u32, untaint u8
//	stats    Loads, Stores, TaintedLoads, TaintOps, UntaintOps,
//	         SourceRegs, SinkChecks, TaintedSinks, MaxBytes u64, MaxRanges u32
//	windows  count u32, count × { pid u32, open u8, ltlt u64, nt u32 }   (pid-ascending)
//	taint    count u32, count × { pid u32, nranges u32,
//	                              nranges × { start u32, end u32 } }     (pid-ascending)
//	verdicts count u32, count × { tag u32, pid u32, seq u64, tainted u8 } (stream order)
//
// Maps are emitted in ascending PID order and empty range sets are elided,
// so the encoding is a deterministic, canonical function of the tracker's
// semantic state: two trackers that would answer every future query
// identically serialize to identical bytes. Restoring a snapshot and
// feeding the remaining event stream therefore produces byte-identical
// stats and verdicts to an uninterrupted run.

var snapshotMagic = [8]byte{'P', 'I', 'F', 'T', 'S', 'N', 'P', '1'}

// Per-section sanity caps, in the spirit of the trace reader's: a corrupt
// count beyond them fails fast. A count within them is still only a
// claim, so it sizes no allocation beyond snapMaxHint entries; the rest
// grows with the entries actually read.
const (
	snapMaxWindows  = 1 << 24
	snapMaxPIDs     = 1 << 24
	snapMaxRanges   = 1 << 26
	snapMaxVerdicts = 1 << 26
	snapMaxHint     = 1024
)

// WriteSnapshot serializes the tracker's complete analysis state. It
// requires the tracker to run on the unbounded IdealStore — bounded stores
// evict, so their content is not a pure function of the event stream and
// cannot honor the resume-equals-uninterrupted guarantee.
func (t *Tracker) WriteSnapshot(w io.Writer) (int64, error) {
	ideal, ok := t.store.(*IdealStore)
	if !ok {
		return 0, fmt.Errorf("core: snapshot requires *IdealStore, tracker has %T", t.store)
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	cw.write(snapshotMagic[:])

	cw.u64(t.cfg.NI)
	cw.u32(uint32(t.cfg.NT))
	cw.bool8(t.cfg.Untaint)

	s := t.stats
	for _, v := range []uint64{
		s.Loads, s.Stores, s.TaintedLoads, s.TaintOps, s.UntaintOps,
		s.SourceRegs, s.SinkChecks, s.TaintedSinks, s.MaxBytes,
	} {
		cw.u64(v)
	}
	cw.u32(uint32(s.MaxRanges))

	pids := make([]uint32, 0, len(t.windows))
	for pid := range t.windows {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	cw.u32(uint32(len(pids)))
	for _, pid := range pids {
		win := t.windows[pid]
		cw.u32(pid)
		cw.bool8(win.open)
		cw.u64(win.ltlt)
		cw.u32(uint32(win.nt))
	}

	tainted := ideal.PIDs()
	cw.u32(uint32(len(tainted)))
	var scratch []mem.Range
	for _, pid := range tainted {
		scratch = ideal.AppendRanges(pid, scratch[:0])
		cw.u32(pid)
		cw.u32(uint32(len(scratch)))
		for _, r := range scratch {
			cw.u32(r.Start)
			cw.u32(r.End)
		}
	}

	cw.u32(uint32(len(t.verdicts)))
	for _, v := range t.verdicts {
		cw.u32(uint32(int32(v.Tag)))
		cw.u32(v.PID)
		cw.u64(v.Seq)
		cw.bool8(v.Tainted)
	}
	if cw.err == nil {
		cw.err = bw.Flush()
	}
	return cw.n, cw.err
}

// ReadSnapshot rebuilds a tracker from a snapshot written by
// WriteSnapshot. The restored tracker runs on a fresh IdealStore and
// carries the snapshot's configuration, windows, statistics, and verdicts;
// metrics instrumentation is not part of the state and must be reattached
// with SetMetrics.
func ReadSnapshot(r io.Reader) (*Tracker, error) {
	cr := &countingReader{r: bufio.NewReader(r)}
	var magic [8]byte
	cr.read(magic[:])
	if cr.err != nil {
		return nil, fmt.Errorf("core: snapshot magic: %w", cr.err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %q", magic[:])
	}

	var cfg Config
	cfg.NI = cr.u64()
	cfg.NT = int(cr.u32())
	cfg.Untaint = cr.bool8()
	if cr.err == nil {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("core: snapshot config: %w", err)
		}
	}

	var s Stats
	for _, p := range []*uint64{
		&s.Loads, &s.Stores, &s.TaintedLoads, &s.TaintOps, &s.UntaintOps,
		&s.SourceRegs, &s.SinkChecks, &s.TaintedSinks, &s.MaxBytes,
	} {
		*p = cr.u64()
	}
	s.MaxRanges = int(cr.u32())

	nwin := cr.u32()
	if cr.err == nil && nwin > snapMaxWindows {
		return nil, fmt.Errorf("core: snapshot declares %d windows", nwin)
	}
	windows := make(map[uint32]*window, min(nwin, snapMaxHint))
	var prevPID uint32
	for i := uint32(0); i < nwin && cr.err == nil; i++ {
		pid := cr.u32()
		if i > 0 && pid <= prevPID {
			return nil, fmt.Errorf("core: snapshot windows out of order at pid %d", pid)
		}
		prevPID = pid
		windows[pid] = &window{open: cr.bool8(), ltlt: cr.u64(), nt: int(cr.u32())}
	}

	npids := cr.u32()
	if cr.err == nil && npids > snapMaxPIDs {
		return nil, fmt.Errorf("core: snapshot declares %d tainted processes", npids)
	}
	store := NewIdealStore()
	prevPID = 0
	for i := uint32(0); i < npids && cr.err == nil; i++ {
		pid := cr.u32()
		if i > 0 && pid <= prevPID {
			return nil, fmt.Errorf("core: snapshot taint sets out of order at pid %d", pid)
		}
		prevPID = pid
		nr := cr.u32()
		if cr.err == nil && nr > snapMaxRanges {
			return nil, fmt.Errorf("core: snapshot declares %d ranges for pid %d", nr, pid)
		}
		for j := uint32(0); j < nr && cr.err == nil; j++ {
			start, end := cr.u32(), cr.u32()
			if cr.err == nil && end < start {
				return nil, fmt.Errorf("core: snapshot pid %d range %d inverted", pid, j)
			}
			store.Add(pid, mem.Range{Start: start, End: end})
		}
	}

	nv := cr.u32()
	if cr.err == nil && nv > snapMaxVerdicts {
		return nil, fmt.Errorf("core: snapshot declares %d verdicts", nv)
	}
	var verdicts []SinkVerdict
	if cr.err == nil && nv > 0 {
		verdicts = make([]SinkVerdict, 0, min(nv, snapMaxHint))
	}
	for i := uint32(0); i < nv && cr.err == nil; i++ {
		verdicts = append(verdicts, SinkVerdict{
			Tag:     int(int32(cr.u32())),
			PID:     cr.u32(),
			Seq:     cr.u64(),
			Tainted: cr.bool8(),
		})
	}
	if cr.err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", cr.err)
	}
	return &Tracker{
		cfg:      cfg,
		store:    store,
		windows:  windows,
		stats:    s,
		verdicts: verdicts,
	}, nil
}

// countingWriter accumulates little-endian primitives, remembering the
// first error so call sites stay linear.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) write(b []byte) {
	if c.err != nil {
		return
	}
	n, err := c.w.Write(b)
	c.n += int64(n)
	c.err = err
}

func (c *countingWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.write(b[:])
}

func (c *countingWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.write(b[:])
}

func (c *countingWriter) bool8(v bool) {
	b := [1]byte{0}
	if v {
		b[0] = 1
	}
	c.write(b[:])
}

// countingReader mirrors countingWriter for decoding; any short read is a
// truncation and surfaces as io.ErrUnexpectedEOF.
type countingReader struct {
	r   io.Reader
	err error
}

func (c *countingReader) read(b []byte) {
	if c.err != nil {
		return
	}
	if _, err := io.ReadFull(c.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		c.err = err
	}
}

func (c *countingReader) u32() uint32 {
	var b [4]byte
	c.read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (c *countingReader) u64() uint64 {
	var b [8]byte
	c.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (c *countingReader) bool8() bool {
	var b [1]byte
	c.read(b[:])
	return b[0] != 0
}
