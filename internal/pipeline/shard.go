package pipeline

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/trace"
)

// Shard-owned ingest — the file-drain path. A producer feeding
// Event/EventBatch funnels every event through one dispatcher goroutine,
// which decodes, shards, and batches alone while N workers wait on it;
// past a few workers the dispatcher IS the pipeline. DrainTrace has no
// dispatcher and no hand-off of decoded events between goroutines: each
// worker opens its own trace.Reader over the phase's event range, decodes
// the range itself, keeps only the events of its own PIDs (trace.Reader's
// filtered read, keep = ShardOf(pid, n) == w, so everything at n = 1)
// and analyzes them in place. A PIFTTRC1 worker validates every record but
// copies only its own; a PIFTTRC3 worker reads each block's PID-run
// column and steps over the runs of other shards' PIDs without decoding
// them, so the decode work that is duplicated across workers is the
// cheap part of it. Without an Observer it also counts every process its
// tracker reports quiet (core.Tracker.Quiet) at the block's start and
// that registers no source in the block: the worker, as the read's
// trace.Projector, takes the process's loads and stores as one count per
// block (core.Tracker.CountQuiet) and only its sink checks as events,
// without their ranges. Algorithm 1 reads nothing else of a quiet
// process's events, and taint enters a process only through its own
// source registration, so the process stays quiet through the block.
//
// Correctness is an ordering argument. Tracker state is per-PID, so the
// merged Result is byte-identical to the sequential tracker's as long as
// each shard sees its PIDs' events in trace order (see the package
// comment) — and each worker scans the phase in trace order.
//
// Errors follow the same argument. Exactly one worker keeps each event,
// and a filtered read fails wherever a plain read over the same bytes
// fails on an event it keeps or on the stream's structure, at the same
// offset, so the failure with the lowest event offset across the workers
// is the one a plain reader reports; that is the error DrainTrace
// returns. The one exception is a value in a range column a worker
// stepped over: a malformed or out-of-address-space range of a counted
// process's event goes unreported, and the Result is the one the
// undamaged bytes give, since Algorithm 1 never reads that range.
//
// Checkpoint offsets keep their contract by phasing: the trace is drained
// in phases bounded at CheckpointEvery multiples, with a full barrier
// (every worker at the end of the phase) between phases. Checkpoints
// therefore fire at exactly the CheckpointEvery multiples of the stream,
// against quiescent trackers, and a checkpoint written here restores onto
// either route: DrainTrace on the same bytes, or Skip to Offset() and an
// EventBatch loop over the rest.

// DrainTrace consumes the serialized trace in ra — either wire format,
// sniffed from the header — through shard-owned readers and returns the
// merged result, honoring Options.CheckpointEvery/OnCheckpoint. For a
// block-compressed PIFTTRC3 trace the readers are positioned through the
// block index (trace.LoadIndex) instead of the fixed record stride; a
// phase edge may fall inside a block, and phase and checkpoint offsets
// stay in event counts, so checkpoints fire at identical offsets on both
// formats. The drain starts at Offset(): a restored pipeline resumes by
// calling DrainTrace on the same bytes, and events that Event/EventBatch
// dispatched before the call, which Offset() counts, are analyzed first
// (Sync), ahead of the trace's later events of the same processes. On a
// decode, checkpoint, or cancellation error the pipeline is shut down
// cleanly and the error returned — for a decode error, the one a plain
// reader over the same bytes reports, except for damage to the range
// values of a quiet process (see above); the partial Result is discarded.
// A shard panic fails the drain as it fails Close: the failed worker
// stops reading, the drain ends with the phase, without its checkpoint,
// and the Result keeps Err, Workers and Events (the end of that phase)
// and holds no Stats or Verdicts. A decode error a worker reports in that
// phase takes precedence; one in the failed worker's share of the phase
// after its failure goes unread.
func (p *Pipeline) DrainTrace(ctx context.Context, ra io.ReaderAt) (Result, error) {
	p.Sync()
	idx, err := trace.LoadIndex(ra)
	if err != nil {
		p.Close()
		return Result{}, err
	}
	total := idx.Count()
	if p.events > total {
		p.Close()
		return Result{}, fmt.Errorf("pipeline: resume offset %d beyond trace length %d", p.events, total)
	}
	done := ctx.Done()
	for p.events < total {
		if done != nil {
			select {
			case <-done:
				p.Close()
				return Result{}, ctx.Err()
			default:
			}
		}
		end := total
		if p.opts.CheckpointEvery > 0 {
			if next := p.events + p.opts.CheckpointEvery - p.events%p.opts.CheckpointEvery; next < end {
				end = next
			}
		}
		if err := p.runPhase(ctx, idx, ra, p.events, end); err != nil {
			p.Close()
			return Result{}, err
		}
		p.events = end
		if p.failed() {
			res := p.Close()
			return res, res.Err
		}
		if err := p.maybeCheckpoint(); err != nil {
			p.Close()
			return Result{}, err
		}
	}
	res := p.Close()
	return res, res.Err
}

// runPhase drains the event range [first, end) of ra: every worker gets
// a reader over the whole range and a phase barrier to report at. On
// return every event of the range has been analyzed (or the error says
// why not) and the workers are quiescent — the phase WaitGroup's Wait
// edge publishes their tracker state, and their errors, to this
// goroutine, which is what entitles the caller to checkpoint next.
func (p *Pipeline) runPhase(ctx context.Context, idx *trace.Index, ra io.ReaderAt, first, end uint64) error {
	seg := trace.Segment{First: first, Count: end - first}
	nw := len(p.workers)
	var phase sync.WaitGroup
	phase.Add(nw)
	jobs := make([]phaseJob, nw)
	for w, wk := range p.workers {
		jobs[w] = phaseJob{ctx: ctx, r: idx.SegmentReader(ra, seg), batch: p.opts.BatchSize, wg: &phase}
		if nw > 1 {
			jobs[w].keep = func(pid uint32) bool { return shard(pid, nw) == w }
		}
		wk.q <- job{phase: &jobs[w]}
	}
	phase.Wait()
	var err error // the failure a plain reader would report first
	var at uint64
	for _, j := range jobs {
		if j.err != nil && (err == nil || j.at < at) {
			err, at = j.err, j.at
		}
	}
	return err
}

// failed reports whether a shard has failed. Between phases the workers
// are quiescent, so the phase barrier orders their err writes before
// this read.
func (p *Pipeline) failed() bool {
	for _, w := range p.workers {
		if w.err != nil {
			return true
		}
	}
	return false
}

// maybeCheckpoint runs the checkpoint hook when the dispatch count sits on
// a CheckpointEvery boundary.
func (p *Pipeline) maybeCheckpoint() error {
	if p.opts.CheckpointEvery > 0 && p.events%p.opts.CheckpointEvery == 0 && p.opts.OnCheckpoint != nil {
		if err := p.opts.OnCheckpoint(p); err != nil {
			return fmt.Errorf("pipeline: checkpoint at offset %d: %w", p.events, err)
		}
	}
	return nil
}
