package pipeline

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cpu"
)

// EventSource is a pull-based event stream terminated by io.EOF.
// trace.Reader implements it, so a serialized trace can feed the pipeline
// without being materialized; any other streaming producer (a socket, a
// generator) fits the same shape.
type EventSource interface {
	Next() (cpu.Event, error)
}

// BatchSource is an EventSource that can also deliver events in bulk.
// Drain detects it and pulls whole batches into a reused buffer — one
// decode loop and zero per-event interface calls — instead of one Next
// call per event. The contract mirrors trace.Reader.NextBatch: up to
// len(dst) events are decoded into dst; a clean end returns (0, io.EOF)
// with no events; a failing record returns every event before it together
// with the error a per-event Next loop would have produced, so the two
// drain paths are observationally identical.
type BatchSource interface {
	EventSource
	NextBatch(dst []cpu.Event) (int, error)
}

// Run drains src through a fresh pipeline and returns the merged result.
// On a source error the pipeline is still shut down cleanly (no leaked
// goroutines) and the error is returned; a worker failure surfaces the
// same way (and in Result.Err).
func Run(src EventSource, opts Options) (Result, error) {
	return RunContext(context.Background(), src, opts)
}

// RunContext is Run under a context: cancellation is checked between
// events (between batches for a BatchSource), so an unbounded source
// cannot pin the dispatcher once the caller gives up. A batch send already in flight still completes —
// backpressure blocks are bounded by the workers' queue drain, which the
// deferred Close performs regardless — and the pipeline's goroutines are
// always released.
func RunContext(ctx context.Context, src EventSource, opts Options) (Result, error) {
	return New(opts).Drain(ctx, src)
}

// Drain feeds src into the pipeline until io.EOF, honoring the
// checkpoint policy (Options.CheckpointEvery/OnCheckpoint), then closes
// and returns the merged result. It is RunContext's engine, exposed so a
// pipeline restored from a checkpoint can consume the remainder of a
// stream: Restore, Skip the source to Offset(), Drain. Checkpoint
// boundaries are absolute event offsets (multiples of CheckpointEvery
// from stream start), so a resumed run keeps the original cadence. On a
// source or checkpoint error the pipeline is shut down cleanly and the
// error returned; the partial Result is discarded.
func (p *Pipeline) Drain(ctx context.Context, src EventSource) (Result, error) {
	if bs, ok := src.(BatchSource); ok {
		return p.drainBatched(ctx, bs)
	}
	done := ctx.Done()
	for {
		if done != nil {
			select {
			case <-done:
				p.Close()
				return Result{}, ctx.Err()
			default:
			}
		}
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			p.Close()
			return Result{}, err
		}
		p.Event(ev)
		if err := p.maybeCheckpoint(); err != nil {
			p.Close()
			return Result{}, err
		}
	}
	res := p.Close()
	return res, res.Err
}

// drainBatched is Drain's bulk path: events arrive len(buf) at a time
// through one reused buffer, and cancellation is checked once per batch
// instead of once per event. Checkpoint boundaries stay exact — a batch is
// capped at the distance to the next CheckpointEvery multiple, so a
// boundary can only ever fall on a batch edge and the checkpoint fires at
// precisely the same absolute offsets as the per-event path.
func (p *Pipeline) drainBatched(ctx context.Context, src BatchSource) (Result, error) {
	done := ctx.Done()
	buf := make([]cpu.Event, p.opts.BatchSize)
	for {
		if done != nil {
			select {
			case <-done:
				p.Close()
				return Result{}, ctx.Err()
			default:
			}
		}
		limit := len(buf)
		if p.opts.CheckpointEvery > 0 {
			if togo := p.opts.CheckpointEvery - p.events%p.opts.CheckpointEvery; uint64(limit) > togo {
				limit = int(togo)
			}
		}
		n, err := src.NextBatch(buf[:limit])
		p.EventBatch(buf[:n])
		if n > 0 {
			if cerr := p.maybeCheckpoint(); cerr != nil {
				p.Close()
				return Result{}, cerr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			p.Close()
			return Result{}, err
		}
	}
	res := p.Close()
	return res, res.Err
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
