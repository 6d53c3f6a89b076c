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
// path. err is likewise written only by the worker goroutine; the
// dispatcher reads it only after a quiesce point — the inflight
// WaitGroup's Wait in Sync, a phase barrier in the shard-owned drain, or
// <-done in Close — all of which establish the necessary happens-before
// edge.
type worker struct {
	idx  int
	q    chan job
	tr   *core.Tracker
	pm   PipelineMetrics
	done chan struct{}
	buf  []cpu.Event // shard-owned decode buffer, reused across phases

	// err is the first panic the worker recovered. It fails the shard,
	// and with it the run: the tracker state is suspect, so the worker
	// analyzes nothing more.
	err error
}

func newWorker(idx int, tr *core.Tracker, pm PipelineMetrics, queueDepth int) *worker {
	return &worker{
		idx:  idx,
		q:    make(chan job, queueDepth),
		tr:   tr,
		pm:   pm,
		done: make(chan struct{}),
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
// decoded batch in place. The batches flow through the same process()
// path as push mode, and so do the counts of a projected read (Count), so
// a panic fails the shard the same way. A failed shard reads no further:
// it would only discard what it decodes, and the drain ends with the
// phase. Cancellation is checked once per batch.
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
	for w.err == nil {
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

// process analyzes one batch. A panic out of the tracker (or an
// observer) fails the shard: the rest of this batch and every later one
// are discarded, never analyzed against the suspect tracker state.
func (w *worker) process(batch []cpu.Event, obs func(int, cpu.Event)) {
	if w.err != nil {
		return
	}
	var start time.Time
	if w.pm.BatchSeconds != nil {
		start = time.Now()
	}
	w.consume(batch, obs)
	if w.pm.BatchSeconds != nil && w.err == nil {
		w.pm.BatchSeconds.Observe(time.Since(start).Seconds())
	}
}

// consume feeds events to the tracker. Without an observer the tracker
// takes the whole slice in one EventBatch call; an observer must see
// every event before the tracker does, so it keeps the per-event loop.
func (w *worker) consume(evs []cpu.Event, obs func(int, cpu.Event)) {
	defer w.recoverPanic()
	if obs == nil {
		w.tr.EventBatch(evs)
		return
	}
	for _, ev := range evs {
		obs(w.idx, ev)
		w.tr.Event(ev)
	}
}

// Quiet implements trace.Projector for a phase read projected: the
// reader may count pid's loads and stores in the block it has reached
// when the tracker, which has applied every event before the block,
// answers quiet. A failed shard discards what it reads, and counts none
// of it.
func (w *worker) Quiet(pid uint32) bool { return w.err == nil && w.tr.Quiet(pid) }

// Count implements trace.Projector: it applies a block's loads and
// stores of pid, which the reader counted instead of delivering. A count
// the tracker refuses (pid is not quiet) fails the shard as a panic in
// process does.
func (w *worker) Count(pid uint32, loads, stores uint64) {
	w.pm.EventsDispatched.Add(loads + stores)
	if w.err != nil {
		return
	}
	defer w.recoverPanic()
	w.tr.CountQuiet(pid, loads, stores)
}

// recoverPanic, deferred around each call into the tracker, turns a
// panic into the shard's failure.
func (w *worker) recoverPanic() {
	if r := recover(); r != nil {
		w.err = fmt.Errorf("pipeline: worker %d panicked: %v", w.idx, r)
		w.pm.WorkerPanics.Inc()
	}
}
