package pipeline_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// TestBackpressureBlocksDispatcher pins a worker inside the observer and
// verifies the dispatcher stalls once the worker's bounded queue is full —
// events are neither dropped nor reordered, the producer just waits.
func TestBackpressureBlocksDispatcher(t *testing.T) {
	const total = 64
	gate := make(chan struct{})
	delivered := make(chan cpu.Event, total)

	// BatchSize 1 + QueueDepth 1: the worker holds one event (blocked on
	// the gate), the channel buffers one batch, and the dispatcher's
	// third send blocks. So exactly 2 Event calls may complete before the
	// gate opens.
	p := pipeline.New(pipeline.Options{
		Workers:    1,
		BatchSize:  1,
		QueueDepth: 1,
		Config:     testCfg,
		Observer: func(w int, ev cpu.Event) {
			delivered <- ev
			<-gate
		},
	})

	var dispatched atomic.Int64
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		for i := 0; i < total; i++ {
			p.Event(cpu.Event{Kind: cpu.EvLoad, PID: 1, Seq: uint64(i + 1),
				Range: mem.MakeRange(mem.Addr(i*16), 4)})
			dispatched.Add(1)
		}
	}()

	// Wait until the worker is pinned on the first event, then give the
	// feeder ample time to run as far as backpressure allows.
	first := <-delivered
	if first.Seq != 1 {
		t.Fatalf("first delivered event has seq %d, want 1", first.Seq)
	}
	const stalledAt = 2
	deadline := time.Now().Add(2 * time.Second)
	for dispatched.Load() < stalledAt && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if n := dispatched.Load(); n != stalledAt {
		t.Fatalf("dispatcher accepted %d events while worker was blocked, want exactly %d", n, stalledAt)
	}
	select {
	case <-feederDone:
		t.Fatal("feeder finished despite a blocked worker — no backpressure")
	default:
	}

	// Release the worker: every event must now flow through, in order.
	close(gate)
	select {
	case <-feederDone:
	case <-time.After(5 * time.Second):
		t.Fatal("feeder did not finish after releasing the worker")
	}
	res := p.Close()
	if res.Events != total {
		t.Fatalf("dispatched %d events, want %d", res.Events, total)
	}
	close(delivered)
	i := 1 // the first event was consumed by the sync above
	for ev := range delivered {
		i++
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d delivered with seq %d — reordered or dropped", i, ev.Seq)
		}
	}
	if i != total {
		t.Fatalf("worker saw %d events, want %d", i, total)
	}
	if res.Stats.Loads != total {
		t.Fatalf("tracker counted %d loads, want %d", res.Stats.Loads, total)
	}
}

// TestBackpressureBoundsQueue generalizes the stall bound to larger batch
// and queue parameters: with the worker pinned, the dispatcher can run at
// most QueueDepth+1 full batches ahead plus the partial batch under
// construction.
func TestBackpressureBoundsQueue(t *testing.T) {
	const batch, depth = 8, 2
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var seen atomic.Int64
	p := pipeline.New(pipeline.Options{
		Workers:    1,
		BatchSize:  batch,
		QueueDepth: depth,
		Config:     testCfg,
		Observer: func(w int, ev cpu.Event) {
			if seen.Add(1) == 1 {
				started <- struct{}{}
			}
			<-gate
		},
	})
	var dispatched atomic.Int64
	feederDone := make(chan struct{})
	const total = 1000
	go func() {
		defer close(feederDone)
		for i := 0; i < total; i++ {
			p.Event(cpu.Event{Kind: cpu.EvLoad, PID: 1, Seq: uint64(i + 1),
				Range: mem.MakeRange(mem.Addr(i*16), 4)})
			dispatched.Add(1)
		}
	}()
	<-started
	// Upper bound on accepted events while the worker is pinned: the
	// batch the worker holds, depth queued batches, one batch blocked in
	// the send, and BatchSize-1 events pending in the dispatcher.
	const bound = batch*(depth+2) + batch - 1
	time.Sleep(100 * time.Millisecond)
	if n := dispatched.Load(); n > bound {
		t.Fatalf("dispatcher ran %d events ahead, bound is %d", n, bound)
	}
	close(gate)
	<-feederDone
	res := p.Close()
	if res.Events != total || res.Stats.Loads != total {
		t.Fatalf("after release: %d dispatched / %d loads, want %d", res.Events, res.Stats.Loads, total)
	}
}

// TestDispatchAllocationFree pins the dispatcher's steady state: once a
// pipeline is warm, dispatching a batch of events and waiting for its
// analysis allocates nothing. Batches recycle between the dispatcher and
// the workers, and jobs cross the worker queues by value.
func TestDispatchAllocationFree(t *testing.T) {
	evs := make([]cpu.Event, 1024)
	for i := range evs {
		evs[i] = cpu.Event{Kind: cpu.EvLoad, PID: uint32(1 + i%8), Seq: uint64(i + 1),
			Range: mem.MakeRange(mem.Addr(i*16), 4)}
	}
	for _, n := range []int{1, 2, 4} {
		p := pipeline.New(pipeline.Options{Workers: n, Config: testCfg})
		dispatch := func() {
			p.EventBatch(evs)
			p.Sync()
		}
		dispatch() // warm: every batch slice the run needs exists
		allocs := testing.AllocsPerRun(200, dispatch)
		p.Close()
		if allocs != 0 {
			t.Errorf("workers=%d: %v allocations per dispatched batch of %d events, want 0", n, allocs, len(evs))
		}
	}
}
