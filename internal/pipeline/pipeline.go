// Package pipeline decouples front-end event production from taint
// analysis, reproducing in software the split the paper builds in
// hardware (§3): the application core streams load/store events to a
// separate analysis core that runs the PIFT heuristic asynchronously.
//
// A single-threaded dispatcher shards events by PID onto N worker
// goroutines, each running its own core.Tracker. Sharding by PID is
// semantics-preserving because the tainting-window algorithm and the
// taint store are both per-process (Algorithm 1 keeps one window per PID;
// Figure 6 tags every storage entry with the PID): events of different
// processes never read or write shared tracker state, so any per-PID-
// order-preserving parallel schedule computes exactly what the sequential
// tracker does. Events are delivered in batches over bounded channels —
// batching amortizes channel synchronization, and the bound turns a slow
// worker into dispatcher backpressure instead of unbounded buffering or
// event loss. Close drains the workers and merges their statistics and
// sink verdicts into a deterministic Result.
package pipeline

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
)

// Pipeline is an asynchronous sharded taint analyzer. It implements
// cpu.EventSink, so it can be attached to a live machine or fed a
// recorded trace exactly like a sequential tracker. The producer side
// (Event, Close) must be driven by one goroutine at a time; the analysis
// runs concurrently behind it.
type Pipeline struct {
	opts     Options
	workers  []*worker
	pending  [][]cpu.Event    // per-worker batch under construction
	free     chan []cpu.Event // analyzed batch slices, for the dispatcher to reuse
	inflight sync.WaitGroup   // batches dispatched but not yet fully analyzed
	m        PipelineMetrics
	tm       core.TrackerMetrics
	events   uint64
	closed   bool
}

// New builds the pipeline and starts its worker goroutines. The result
// must be Closed to release them. Invalid configs panic, as in
// core.NewTracker: they are experiment bugs, not runtime conditions.
func New(opts Options) *Pipeline {
	opts = opts.withDefaults()
	if err := opts.Config.Validate(); err != nil {
		panic(err)
	}
	p := newShell(opts)
	for i := range p.workers {
		p.start(i, core.NewTracker(opts.Config, nil))
	}
	return p
}

// newShell allocates the pipeline chassis — metrics, free list,
// per-worker slots — without starting workers; New and NewSeeded differ
// only in where each worker's tracker comes from.
func newShell(opts Options) *Pipeline {
	p := &Pipeline{opts: opts}
	if opts.Metrics != nil {
		// Registration is idempotent: every pipeline over this registry —
		// and every worker within it — shares one metric set, so counters
		// aggregate across shards and runs.
		p.m = NewPipelineMetrics(opts.Metrics)
		p.tm = core.NewTrackerMetrics(opts.Metrics)
	}
	// A shard's batches are at most its QueueDepth queued ones, the one
	// its worker is analyzing, and the dispatcher's pending one. The free
	// list has room for all of them, so a worker never waits to return one.
	p.free = make(chan []cpu.Event, opts.Workers*(opts.QueueDepth+2))
	p.workers = make([]*worker, opts.Workers)
	p.pending = make([][]cpu.Event, opts.Workers)
	return p
}

// start installs tracker tr as shard i's analyzer and launches the shard.
func (p *Pipeline) start(i int, tr *core.Tracker) {
	tr.SetMetrics(p.tm)
	w := newWorker(i, tr, p.m, p.opts.QueueDepth)
	p.workers[i] = w
	p.pending[i] = p.batch()
	go w.run(p.opts.Observer, p.free, &p.inflight)
}

// Workers returns the worker count.
func (p *Pipeline) Workers() int { return len(p.workers) }

// shard maps a PID to a worker index. The multiply-xorshift mix (the
// murmur3 finalizer) spreads consecutive PIDs evenly regardless of the
// worker count; it is a pure function of the PID, so the assignment is
// deterministic across runs.
func shard(pid uint32, n int) int {
	x := pid
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return int(x % uint32(n))
}

// ShardOf reports which worker index a PID maps to at the given worker
// count — the shard layout is part of the pipeline's observable contract
// (per-worker metrics, failure isolation), so tests and operators can
// predict placement.
func ShardOf(pid uint32, workers int) int {
	if workers <= 1 {
		return 0
	}
	return shard(pid, workers)
}

// Event implements cpu.EventSink: route the event to its PID's shard,
// flushing the shard's batch when full. A full worker queue blocks here —
// that is the backpressure contract.
func (p *Pipeline) Event(ev cpu.Event) { p.EventBatch([]cpu.Event{ev}) }

// EventBatch is Event for a run of events in stream order: a producer
// that already holds decoded batches pays one call per batch rather than
// one per event. It routes the batch by PID run, one shard lookup and one
// copy per run, split where a shard's batch fills, so every shard gets
// exactly the batches per-event Event calls would give it.
func (p *Pipeline) EventBatch(evs []cpu.Event) {
	if p.closed {
		panic("pipeline: Event after Close")
	}
	p.events += uint64(len(evs))
	nw := len(p.workers)
	for len(evs) > 0 {
		run, i := len(evs), 0 // one worker takes the batch as one run
		if nw > 1 {
			run = 1
			for run < len(evs) && evs[run].PID == evs[0].PID {
				run++
			}
			i = shard(evs[0].PID, nw)
		}
		rest := evs[:run]
		evs = evs[run:]
		for len(rest) > 0 {
			b := p.pending[i]
			n := min(len(rest), p.opts.BatchSize-len(b))
			b, rest = append(b, rest[:n]...), rest[n:]
			if len(b) >= p.opts.BatchSize {
				p.send(p.workers[i], b)
				b = p.batch()
			}
			p.pending[i] = b
		}
	}
}

// Offset returns the number of events dispatched over the pipeline's
// lifetime, counted from the start of the stream — a restored pipeline
// continues the count from its checkpoint. It is the resume position to
// pair with trace.Reader.Skip.
func (p *Pipeline) Offset() uint64 { return p.events }

// Sync flushes every shard's partial batch and blocks until all
// dispatched events have been analyzed. On return the worker trackers are
// quiescent — the WaitGroup edge makes their state (and any shard's
// failure) safely visible to the caller's goroutine — which is what
// makes a mid-stream checkpoint consistent. The pipeline stays usable;
// Sync is a barrier, not a shutdown.
func (p *Pipeline) Sync() {
	if p.closed {
		panic("pipeline: Sync after Close")
	}
	for i, w := range p.workers {
		if len(p.pending[i]) > 0 {
			p.send(w, p.pending[i])
			p.pending[i] = p.batch()
		}
	}
	p.inflight.Wait()
}

// send hands a batch to a worker's input queue, accounting for dispatch
// and for backpressure: a full queue counts one stall before the
// blocking send.
func (p *Pipeline) send(w *worker, b []cpu.Event) {
	p.inflight.Add(1)
	p.m.EventsDispatched.Add(uint64(len(b)))
	p.m.BatchesDispatched.Inc()
	p.m.BatchEvents.Observe(float64(len(b)))
	// Depth counts batches handed off but not yet fully analyzed. The
	// increment precedes the send, so it happens-before the worker's
	// decrement and the gauge can never read negative.
	p.m.QueueDepth.Inc()
	p.m.QueueDepthHigh.TrackMax(p.m.QueueDepth.Value())
	select {
	case w.q <- job{batch: b}:
	default:
		p.m.Stalls.Inc()
		w.q <- job{batch: b}
	}
}

// batch takes an empty batch slice off the free list, or makes one.
func (p *Pipeline) batch() []cpu.Event {
	select {
	case b := <-p.free:
		return b
	default:
		return make([]cpu.Event, 0, p.opts.BatchSize)
	}
}

// Close flushes partial batches, waits for every worker to drain, and
// merges their outputs: counters sum, watermarks max (see
// core.Stats.Merge for the exactness argument), and sink verdicts sort
// into the canonical (PID, Seq, Tag) order, so the merged Result is a
// deterministic function of the input stream alone — independent of
// worker count, batch size, and scheduling. If any shard panicked, the
// Result reports the first such fault in Err and merges nothing: a run
// either reproduces the sequential tracker or fails, never a hang and
// never a partial result.
func (p *Pipeline) Close() Result {
	if p.closed {
		panic("pipeline: double Close")
	}
	p.closed = true
	start := time.Now()
	for i, w := range p.workers {
		if len(p.pending[i]) > 0 {
			p.send(w, p.pending[i])
		}
		p.pending[i] = nil
		close(w.q)
	}
	res := Result{Workers: len(p.workers), Events: p.events}
	for _, w := range p.workers {
		<-w.done
		if res.Err == nil {
			res.Err = w.err
		}
	}
	if res.Err == nil {
		for _, w := range p.workers {
			res.Stats.Merge(w.tr.Stats())
			res.Verdicts = append(res.Verdicts, w.tr.Verdicts()...)
		}
		core.SortVerdicts(res.Verdicts)
	}
	p.m.MergeNanos.Set(time.Since(start).Nanoseconds())
	return res
}
