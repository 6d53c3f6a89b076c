package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// Config holds the tainting-window parameters of Algorithm 1.
type Config struct {
	// NI is the tainting-window size, measured in instructions from the
	// last tainted load.
	NI uint64
	// NT is the maximum number of taint propagations per window.
	NT int
	// Untaint enables the untainting rule: a store outside the window
	// removes its target range from the taint set.
	Untaint bool
}

// Validate reports configuration errors. NI=0 or NT=0 disables all
// propagation, which is never what an experiment means.
func (c Config) Validate() error {
	if c.NI < 1 {
		return fmt.Errorf("core: NI must be >= 1, got %d", c.NI)
	}
	if c.NT < 1 {
		return fmt.Errorf("core: NT must be >= 1, got %d", c.NT)
	}
	return nil
}

func (c Config) String() string {
	u := "untaint=off"
	if c.Untaint {
		u = "untaint=on"
	}
	return fmt.Sprintf("NI=%d NT=%d %s", c.NI, c.NT, u)
}

// Stats aggregates the tracker-side overhead metrics the paper evaluates in
// §5.2. Maxima are tracked continuously so heatmap experiments (Figures 14
// and 17) can read them after a run.
type Stats struct {
	Loads        uint64 // load events seen
	Stores       uint64 // store events seen
	TaintedLoads uint64 // loads that hit the taint store (opened a window)
	TaintOps     uint64 // store targets tainted (LINE 18 executions)
	UntaintOps   uint64 // stores that actually removed taint (LINE 21)
	SourceRegs   uint64 // software source registrations
	SinkChecks   uint64 // software sink queries
	TaintedSinks uint64 // sink queries that found taint

	MaxBytes  uint64 // maximum tainted bytes at any instant
	MaxRanges int    // maximum distinct ranges at any instant
}

// SinkVerdict records the outcome of one sink taint query, identified by
// the tag assigned at injection time so replays can match verdicts to
// sink calls.
type SinkVerdict struct {
	Tag     int
	PID     uint32
	Seq     uint64
	Tainted bool
}

// window is the per-process tainting-window state of Algorithm 1:
// LTLT (last tainted-load time) and nt (propagations so far).
type window struct {
	open bool
	ltlt uint64
	nt   int
}

// Tracker is the PIFT taint-propagation engine. It implements
// cpu.EventSink, so it can be attached directly to a live machine or fed a
// recorded trace event by event.
type Tracker struct {
	cfg      Config
	store    Store
	windows  map[uint32]*window
	stats    Stats
	verdicts []SinkVerdict
	m        TrackerMetrics

	// Last-hit window cache: traces arrive as per-process bursts, so the
	// common case is a run of events for one PID and the map lookup in
	// win is skipped for all but the first of each run.
	lastPID uint32
	lastWin *window
}

// NewTracker builds a tracker over the given store; a nil store gets a
// fresh unbounded IdealStore. Invalid configs panic: they are experiment
// bugs, not runtime conditions.
func NewTracker(cfg Config, store Store) *Tracker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if store == nil {
		store = NewIdealStore()
	}
	return &Tracker{
		cfg:     cfg,
		store:   store,
		windows: make(map[uint32]*window),
	}
}

// Config returns the tracker's window parameters.
func (t *Tracker) Config() Config { return t.cfg }

// SetConfig reconfigures the window parameters at run time — the paper's
// Figure 5 exposes NI and NT as software-settable hardware registers.
// Invalid configurations are rejected and the current one kept.
func (t *Tracker) SetConfig(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	t.cfg = cfg
	return nil
}

// Store returns the underlying taint store.
func (t *Tracker) Store() Store { return t.store }

// Stats returns a snapshot of the counters.
func (t *Tracker) Stats() Stats { return t.stats }

// Verdicts returns all sink verdicts recorded so far, in order.
func (t *Tracker) Verdicts() []SinkVerdict { return t.verdicts }

// WindowCount returns the number of per-process tainting windows the
// tracker currently holds — one per PID that has ever produced a tainted
// load. Session managers use it (with RangeCount and the verdict count) to
// estimate a tracker's resident footprint for memory-budget accounting.
func (t *Tracker) WindowCount() int { return len(t.windows) }

// TaintedBytes returns the current total tainted bytes (Figure 15 samples
// this while pumping a trace).
func (t *Tracker) TaintedBytes() uint64 { return t.store.TaintedBytes() }

// RangeCount returns the current number of distinct tainted ranges.
func (t *Tracker) RangeCount() int { return t.store.RangeCount() }

// Ops returns the cumulative tainting+untainting operation count
// (Figure 16 samples this).
func (t *Tracker) Ops() uint64 { return t.stats.TaintOps + t.stats.UntaintOps }

// Check answers a synchronous taint query, as the kernel module does for
// the software stack, without recording a verdict.
func (t *Tracker) Check(pid uint32, r mem.Range) bool {
	return t.store.Overlaps(pid, r)
}

// Event implements cpu.EventSink: Algorithm 1, TAINT PROPAGATION HEURISTIC.
func (t *Tracker) Event(ev cpu.Event) {
	switch ev.Kind {
	case cpu.EvLoad:
		t.stats.Loads++
		// LINE 10–15: a load overlapping the taint set starts (or
		// restarts) the tainting window.
		if t.store.Overlaps(ev.PID, ev.Range) {
			t.stats.TaintedLoads++
			t.m.WindowOpens.Inc()
			w := t.win(ev.PID)
			w.open = true
			w.ltlt = ev.Seq
			w.nt = 0
		}

	case cpu.EvStore:
		t.stats.Stores++
		w := t.win(ev.PID)
		if w.open && ev.Seq > w.ltlt+t.cfg.NI {
			// Per-process sequence numbers are monotone, so a window seen
			// past its NI horizon can never taint again until a tainted
			// load reopens it. Closing it here is observationally
			// equivalent and lets each window expire exactly once.
			w.open = false
			t.m.WindowExpirations.Inc()
		}
		// LINE 17–19: inside the window with propagation budget left —
		// taint the store target.
		if w.open && w.nt < t.cfg.NT {
			t.store.Add(ev.PID, ev.Range)
			w.nt++
			t.stats.TaintOps++
			t.m.TaintAdds.Inc()
			t.noteHighWater()
			return
		}
		// LINE 20–22: otherwise untaint (if enabled). Only actual
		// removals count as operations; a store to clean memory costs
		// the hardware a lookup miss, not a state change.
		if t.cfg.Untaint {
			if t.store.Remove(ev.PID, ev.Range) {
				t.stats.UntaintOps++
				t.m.Untaints.Inc()
			}
		}

	case cpu.EvSourceRegister:
		t.stats.SourceRegs++
		t.store.Add(ev.PID, ev.Range)
		t.noteHighWater()

	case cpu.EvSinkCheck:
		t.stats.SinkChecks++
		t.m.SinkChecks.Inc()
		tainted := t.store.Overlaps(ev.PID, ev.Range)
		if tainted {
			t.stats.TaintedSinks++
			t.m.TaintedSinks.Inc()
		}
		t.verdicts = append(t.verdicts, SinkVerdict{
			Tag: ev.Tag, PID: ev.PID, Seq: ev.Seq, Tainted: tainted,
		})
	}
}

// EventBatch applies evs in stream order with the same effect as calling
// Event on each of them: the same Stats, verdicts, windows, taint sets
// and metric values.
//
// In Algorithm 1 only taint changes state: a load opens a window only if
// it overlaps the process's taint set, a store taints only inside an
// open window, and untainting removes only tainted bytes. A process whose
// taint set is empty and whose window is closed is quiet: until it
// registers a source, its events change nothing but counters, a clean
// verdict per sink check and the window entry a store creates.
// EventBatch walks the batch by PID run and applies a quiet process's run
// up to its next source registration as exactly those counts, without a
// taint-store lookup. Every other run goes through Event. A window past
// its NI horizon that no store has closed yet is still open, so its
// process is not quiet: its next store must count the expiration.
//
// Only a tracker on the IdealStore takes the quiet path. A bounded
// store's lookups move its LRU state and hit counts, so every event of a
// tracker on one goes through Event.
//
// A quiet run reads no event's range, so a reader may leave the ranges
// of a quiet process's sink checks undecoded (trace.ProjectedRange), and
// may hand over its loads and stores as counts (CountQuiet). Such a range
// ends below its start, which no decoder produces, and EventBatch panics
// on one outside a quiet run: a reader that left out a range Algorithm 1
// needs faults the batch instead of computing a verdict from it.
//
// If Event panics (a faulty Store), the panic propagates.
func (t *Tracker) EventBatch(evs []cpu.Event) {
	i := 0
	ideal, _ := t.store.(*IdealStore)
	for i < len(evs) {
		pid := evs[i].PID
		if ideal != nil && t.quiet(ideal, pid) {
			i += t.quietRun(pid, evs[i:])
		}
		for ; i < len(evs) && evs[i].PID == pid; i++ {
			if evs[i].Range.End < evs[i].Range.Start {
				panic(fmt.Sprintf("core: projected event %d of PID %d outside a quiet run", i, pid))
			}
			t.Event(evs[i])
		}
	}
}

// Quiet reports whether EventBatch would apply pid's next events as
// counts: the tracker runs on an IdealStore, pid's taint set is empty and
// its window is closed. A quiet process stays quiet until it registers a
// source, so up to that registration a reader may count its loads and
// stores (CountQuiet) and leave out the ranges of its sink checks.
func (t *Tracker) Quiet(pid uint32) bool {
	ideal, _ := t.store.(*IdealStore)
	return ideal != nil && t.quiet(ideal, pid)
}

// CountQuiet applies the given numbers of loads and stores of the quiet
// process pid as EventBatch applies them in a quiet run: the Loads and
// Stores counters, and the closed window entry a store creates. It
// panics, and changes nothing, if pid is not quiet: counts stand in for
// events only where Algorithm 1 would read nothing else of them.
func (t *Tracker) CountQuiet(pid uint32, loads, stores uint64) {
	if !t.Quiet(pid) {
		panic(fmt.Sprintf("core: counted events of PID %d, which is not quiet", pid))
	}
	t.addQuiet(pid, loads, stores)
}

// quiet reports whether pid holds no taint and no open window.
func (t *Tracker) quiet(s *IdealStore, pid uint32) bool {
	if rs := s.set(pid, false); rs != nil && !rs.Empty() {
		return false
	}
	w := t.lastWin
	if w == nil || t.lastPID != pid {
		if w = t.windows[pid]; w != nil {
			t.lastPID, t.lastWin = pid, w
		}
	}
	return w == nil || !w.open
}

// quietRun applies the leading events of evs that belong to the quiet
// process pid, up to its next source registration, and returns how many
// it applied. Whether a memory access is a load or a store is as random
// as the program's mix of reads and writes, so the loop counts all
// memory accesses and the stores among them, which compiles to a
// conditional move rather than a branch.
func (t *Tracker) quietRun(pid uint32, evs []cpu.Event) int {
	var memOps, stores, sinks uint64
	n := 0
scan:
	for ; n < len(evs) && evs[n].PID == pid; n++ {
		ev := &evs[n]
		switch ev.Kind {
		case cpu.EvLoad, cpu.EvStore:
			memOps++
			if ev.Kind == cpu.EvStore {
				stores++
			}
		case cpu.EvSinkCheck:
			sinks++
			t.verdicts = append(t.verdicts, SinkVerdict{Tag: ev.Tag, PID: pid, Seq: ev.Seq})
		case cpu.EvSourceRegister:
			break scan
		}
	}
	t.addQuiet(pid, memOps-stores, stores)
	if sinks > 0 {
		t.stats.SinkChecks += sinks
		t.m.SinkChecks.Add(sinks)
	}
	return n
}

// addQuiet applies loads and stores of the quiet process pid.
func (t *Tracker) addQuiet(pid uint32, loads, stores uint64) {
	if stores > 0 {
		t.win(pid)
	}
	t.stats.Loads += loads
	t.stats.Stores += stores
}

func (t *Tracker) win(pid uint32) *window {
	if t.lastWin != nil && t.lastPID == pid {
		return t.lastWin
	}
	w := t.windows[pid]
	if w == nil {
		w = &window{}
		t.windows[pid] = w
	}
	t.lastPID, t.lastWin = pid, w
	return w
}

func (t *Tracker) noteHighWater() {
	if b := t.store.TaintedBytes(); b > t.stats.MaxBytes {
		t.stats.MaxBytes = b
		t.m.TaintedBytesHigh.TrackMax(int64(b))
	}
	if n := t.store.RangeCount(); n > t.stats.MaxRanges {
		t.stats.MaxRanges = n
		t.m.TaintedRangesHigh.TrackMax(int64(n))
	}
}

// Reset clears taint state, window state, statistics, and verdicts, keeping
// the configuration. Replay harnesses reuse trackers across traces.
func (t *Tracker) Reset() {
	t.store.Reset()
	t.windows = make(map[uint32]*window)
	t.stats = Stats{}
	t.verdicts = nil
	t.lastWin = nil
}
