// Package ring provides a bounded single-producer/single-consumer queue —
// the pipeline's worker input queue. A Go channel is a
// multi-producer/multi-consumer structure and pays for that generality
// with a mutex on every operation; each worker queue has strictly one
// producer and one consumer (the dispatcher, or the DrainTrace
// coordinator handing out one job per phase, to the worker), so the ring
// replaces the lock
// with two monotonic cursors: the producer owns the tail, the consumer
// owns the head, and each side only ever loads the other's cursor. The
// uncontended fast path is two atomic operations and no allocation; a
// full (or empty) ring parks the blocked side on a one-token wake channel
// instead of spinning.
package ring

import "sync/atomic"

// Ring is a bounded SPSC queue of T. Exactly one goroutine may call
// Push/TryPush (the producer) and exactly one may call Pop/TryPop (the
// consumer); the two may be — and usually are — different goroutines.
// Close may be called from any goroutine and is idempotent. Items pushed
// before Close remain poppable: the consumer drains the buffer and only
// then observes the closed state.
type Ring[T any] struct {
	buf  []T
	mask uint64

	// The cursors live on their own cache lines so the producer's tail
	// stores never invalidate the line the consumer's head lives on.
	_    [64]byte
	tail atomic.Uint64 // next slot to write; advanced only by the producer
	_    [56]byte
	head atomic.Uint64 // next slot to read; advanced only by the consumer
	_    [56]byte

	closed atomic.Bool
	// notEmpty and notFull each hold at most one wake token; a blocked
	// side re-checks its condition after every wake, so a stale token
	// costs one loop iteration, never a lost update.
	notEmpty chan struct{}
	notFull  chan struct{}
	done     chan struct{}
}

// New builds a ring with capacity rounded up to the next power of two
// (minimum 1), so slot indexing is a mask instead of a modulo.
func New[T any](capacity int) *Ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{
		buf:      make([]T, n),
		mask:     uint64(n - 1),
		notEmpty: make(chan struct{}, 1),
		notFull:  make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

// Cap returns the ring's slot capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of items currently buffered. It is exact from
// either endpoint's own goroutine and a point-in-time estimate elsewhere.
func (r *Ring[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Push appends v, blocking while the ring is full. It reports false —
// and does not deliver v — once the ring is closed; a producer seeing
// false can stop producing, its consumer has gone away.
func (r *Ring[T]) Push(v T) bool {
	for {
		if r.closed.Load() {
			return false
		}
		t := r.tail.Load()
		if t-r.head.Load() < uint64(len(r.buf)) {
			r.buf[t&r.mask] = v
			r.tail.Store(t + 1)
			select {
			case r.notEmpty <- struct{}{}:
			default:
			}
			return true
		}
		select {
		case <-r.notFull:
		case <-r.done:
			return false
		}
	}
}

// TryPush appends v without blocking; false means the ring was full or
// closed.
func (r *Ring[T]) TryPush(v T) bool {
	if r.closed.Load() {
		return false
	}
	t := r.tail.Load()
	if t-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	select {
	case r.notEmpty <- struct{}{}:
	default:
	}
	return true
}

// Pop removes and returns the oldest item, blocking while the ring is
// open and empty. It reports false only when the ring is closed AND
// drained — every item pushed before Close is still delivered.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	for {
		h := r.head.Load()
		if r.tail.Load() != h {
			v := r.buf[h&r.mask]
			r.buf[h&r.mask] = zero // drop the reference so the GC can reclaim it
			r.head.Store(h + 1)
			select {
			case r.notFull <- struct{}{}:
			default:
			}
			return v, true
		}
		if r.closed.Load() {
			// Re-check after observing closed: a final Push may have
			// landed between the emptiness check and the closed check.
			if r.tail.Load() == h {
				return zero, false
			}
			continue
		}
		select {
		case <-r.notEmpty:
		case <-r.done:
		}
	}
}

// TryPop removes the oldest item without blocking; false means the ring
// was empty (closed or not).
func (r *Ring[T]) TryPop() (T, bool) {
	var zero T
	h := r.head.Load()
	if r.tail.Load() == h {
		return zero, false
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero
	r.head.Store(h + 1)
	select {
	case r.notFull <- struct{}{}:
	default:
	}
	return v, true
}

// Close marks the ring closed and wakes both endpoints: a blocked Push
// returns false, a blocked Pop drains whatever is buffered and then
// returns false. Idempotent, callable from any goroutine.
func (r *Ring[T]) Close() {
	if r.closed.CompareAndSwap(false, true) {
		close(r.done)
	}
}

// Closed reports whether Close has been called.
func (r *Ring[T]) Closed() bool { return r.closed.Load() }
