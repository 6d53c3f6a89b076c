package pipeline

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// job is one unit of work on a worker's input queue: either a single
// pre-sharded batch (push mode, the dispatcher's hand-off) or a phase of
// the shard-owned drain (phase non-nil), in which the worker decodes the
// phase's event range itself.
type job struct {
	batch []cpu.Event
	phase *phaseJob
}

// phaseJob hands a worker one shard-owned phase: a reader over the
// phase's event range, which the worker drains in trace order keeping
// the events keep accepts (its own PIDs'; nil keeps all) — that scan
// order is what preserves per-PID event order — plus the phase barrier
// the coordinator waits on. Without an Observer the worker reads it
// projected, as its own trace.Projector: the loads and stores of a
// process its tracker answers quiet for reach the tracker as counts. The
// worker reports a failure in err, with the reader's offset at the
// failure in at; the coordinator reads both after the barrier.
type phaseJob struct {
	ctx   context.Context
	r     *trace.Reader
	keep  func(pid uint32) bool
	batch int // decode buffer size, in events
	wg    *sync.WaitGroup
	err   error
	at    uint64
}

// worker owns one shard: a bounded job queue feeding a private
// tracker. All tracker state is confined to the worker goroutine between
// New and the done signal, so no locking is needed anywhere in the hot
// path. The fault-bookkeeping fields are likewise written only by the
// worker goroutine; the dispatcher reads them only after a quiesce point —
// the inflight WaitGroup's Wait in Sync, a phase barrier in the
// shard-owned drain, or <-done in Close — all of which establish the
// necessary happens-before edge.
type worker struct {
	idx  int
	q    chan job
	tr   *core.Tracker
	pm   PipelineMetrics
	done chan struct{}
	buf  []cpu.Event // shard-owned decode buffer, reused across phases

	// maxRestarts is the shard's panic budget K (Options.MaxRestarts).
	maxRestarts int
	// panics counts panics recovered on this shard; the first maxRestarts
	// of them restart the shard, the next one fails it for good.
	panics int
	// failed marks the shard permanently poisoned: its tracker state is
	// suspect and all further batches are discarded (and counted).
	failed bool
	// firstErr records the first recovered panic, for the fault report.
	firstErr error
	// droppedEvents and droppedBatches count work this shard discarded —
	// skipped poisonous events plus everything thrown away after failure.
	droppedEvents  uint64
	droppedBatches uint64
}

func newWorker(idx int, tr *core.Tracker, pm PipelineMetrics, queueDepth, maxRestarts int) *worker {
	return &worker{
		idx:         idx,
		q:           make(chan job, queueDepth),
		tr:          tr,
		pm:          pm,
		done:        make(chan struct{}),
		maxRestarts: maxRestarts,
	}
}

// run drains jobs until the dispatcher closes the input queue, returning
// spent batch slices to the dispatcher's free list and marking each
// push-mode batch done on the inflight WaitGroup — the quiesce barrier
// Sync waits on. A batch goes back before it is marked done, so the
// dispatcher finds it there after Sync. A failed worker keeps draining —
// discarding further batches — so the dispatcher's bounded sends can
// never hang on a dead consumer.
func (w *worker) run(obs func(int, cpu.Event), free chan []cpu.Event, inflight *sync.WaitGroup) {
	defer close(w.done)
	for j := range w.q {
		if j.phase != nil {
			w.runPhase(j.phase, obs)
			continue
		}
		w.process(j.batch, obs)
		select {
		case free <- j.batch[:0]:
		default: // unreachable: free has room for every batch the pipeline makes
		}
		w.pm.QueueDepth.Dec()
		inflight.Done()
	}
}

// runPhase consumes one shard-owned phase: the worker reads the phase's
// events in trace order, keeps its own PIDs' events, and analyzes each
// decoded batch in place. Fault policy is identical to push mode — the
// batches flow through the same process() path, restart budget and all,
// and so do the counts of a projected read (Count). Cancellation is
// checked once per batch.
func (w *worker) runPhase(ph *phaseJob, obs func(int, cpu.Event)) {
	defer ph.wg.Done()
	if cap(w.buf) < ph.batch {
		w.buf = make([]cpu.Event, ph.batch)
	}
	buf := w.buf[:ph.batch]
	// An Observer must see every event, so it turns projection off.
	var proj trace.Projector
	if obs == nil {
		proj = w
	}
	done := ph.ctx.Done()
	for {
		if done != nil {
			select {
			case <-done:
				ph.err, ph.at = ph.ctx.Err(), ph.r.Offset()
				return
			default:
			}
		}
		n, err := ph.r.NextBatchProject(buf, ph.keep, proj)
		if n > 0 {
			w.pm.EventsDispatched.Add(uint64(n))
			w.pm.BatchesDispatched.Inc()
			w.pm.BatchEvents.Observe(float64(n))
			w.process(buf[:n], obs)
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			ph.err, ph.at = err, ph.r.Offset()
			return
		}
	}
}

// process analyzes one batch under the restart policy: a panic out of the
// tracker (or an observer) is recovered, the poisonous event skipped, and
// the batch resumed — up to the shard's restart budget. The panic that
// exhausts the budget fails the shard: the rest of this batch and every
// later one are discarded and counted, never analyzed against the suspect
// tracker state.
func (w *worker) process(batch []cpu.Event, obs func(int, cpu.Event)) {
	if w.failed {
		w.droppedBatches++
		w.drop(uint64(len(batch)))
		return
	}
	var start time.Time
	if w.pm.BatchSeconds != nil {
		start = time.Now()
	}
	for off := 0; off < len(batch); {
		n, ok := w.consume(batch[off:], obs)
		if ok {
			break
		}
		// batch[off+n] panicked. Spend one unit of restart budget to skip
		// it and resume, or fail the shard if the budget is gone.
		if w.panicked() {
			w.drop(uint64(len(batch) - off - n)) // the poisonous event and everything after it
			return
		}
		w.drop(1)
		off += n + 1
	}
	if w.pm.BatchSeconds != nil {
		w.pm.BatchSeconds.Observe(time.Since(start).Seconds())
	}
}

// Quiet implements trace.Projector for a phase read projected: the
// reader may count pid's loads and stores in the block it has reached
// when the tracker, which has applied every event before the block,
// answers quiet. A failed shard discards what it reads, and counts none
// of it.
func (w *worker) Quiet(pid uint32) bool { return !w.failed && w.tr.Quiet(pid) }

// Count implements trace.Projector: it applies a block's loads and
// stores of pid, which the reader counted instead of delivering, under
// the restart policy of process, with the count as the poisonous unit.
// A count the tracker refuses (pid is not quiet) is a shard fault, and
// its events are dropped.
func (w *worker) Count(pid uint32, loads, stores uint64) {
	n := loads + stores
	w.pm.EventsDispatched.Add(n)
	if !w.failed {
		if w.countQuiet(pid, loads, stores) {
			return
		}
		w.panicked()
	}
	w.drop(n)
}

// countQuiet applies a count, reporting false if the tracker panicked.
func (w *worker) countQuiet(pid uint32, loads, stores uint64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			w.noteErr(r)
			ok = false
		}
	}()
	w.tr.CountQuiet(pid, loads, stores)
	return true
}

// panicked spends one unit of restart budget on a recovered panic, or
// fails the shard when the budget is gone, and reports whether it did.
func (w *worker) panicked() bool {
	w.pm.WorkerPanics.Inc()
	w.panics++
	if w.panics > w.maxRestarts {
		w.failed = true
		w.pm.ShardFailures.Inc()
		return true
	}
	w.pm.WorkerRestarts.Inc()
	return false
}

// drop counts n events discarded to a fault.
func (w *worker) drop(n uint64) {
	w.droppedEvents += n
	w.pm.DroppedEvents.Add(n)
}

// noteErr keeps the first recovered panic for the fault report.
func (w *worker) noteErr(r any) {
	if w.firstErr == nil {
		w.firstErr = fmt.Errorf("pipeline: worker %d panicked: %v", w.idx, r)
	}
}

// consume feeds events to the tracker until the slice is exhausted or a
// panic escapes the tracker/observer. It reports how many events were
// fully analyzed before the fault and whether the slice completed; on a
// fault, evs[n] is the event whose analysis panicked. Without an observer
// the tracker takes the whole slice in one EventBatch call; an observer
// must see every event before the tracker does, so it keeps the
// per-event loop.
func (w *worker) consume(evs []cpu.Event, obs func(int, cpu.Event)) (n int, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			w.noteErr(r)
			if obs == nil {
				n = w.tr.BatchCursor()
			}
			ok = false
		}
	}()
	if obs == nil {
		w.tr.EventBatch(evs)
		return len(evs), true
	}
	for ; n < len(evs); n++ {
		obs(w.idx, evs[n])
		w.tr.Event(evs[n])
	}
	return n, true
}

// fault summarizes the shard's fault state for Result.Faults; zero-value
// when the shard never panicked.
func (w *worker) fault() (ShardFault, bool) {
	if w.panics == 0 {
		return ShardFault{}, false
	}
	restarts := w.panics
	if w.failed {
		restarts--
	}
	return ShardFault{
		Worker:         w.idx,
		Restarts:       restarts,
		Failed:         w.failed,
		DroppedEvents:  w.droppedEvents,
		DroppedBatches: w.droppedBatches,
		Err:            w.firstErr,
	}, true
}
