package main

import (
	"fmt"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// meter records what the measured window did: op and query latencies,
// the work they completed, and every op that went wrong. Upload and spill
// clients record from several goroutines, hence the lock; ops are
// milliseconds apart, so it never contends.
type meter struct {
	mu        sync.Mutex
	ops       []time.Duration // one per op: a whole drain, or one POST until its ack
	queries   []time.Duration // one per GET /verdicts
	attempted int
	failed    int
	retries   int    // 429 answers that were retried
	events    uint64 // events drained or acked
	wire      uint64 // trace bytes the program consumed for them
	failures  []string
	spans     *spanLog // nil when untraced
}

func (m *meter) op(d time.Duration, events, wire uint64) {
	m.mu.Lock()
	m.ops = append(m.ops, d)
	m.attempted++
	m.events += events
	m.wire += wire
	m.mu.Unlock()
}

func (m *meter) query(d time.Duration) {
	m.mu.Lock()
	m.queries = append(m.queries, d)
	m.attempted++
	m.mu.Unlock()
}

// other counts a request that is neither an op nor a query (DELETE).
func (m *meter) other() {
	m.mu.Lock()
	m.attempted++
	m.mu.Unlock()
}

func (m *meter) retry() {
	m.mu.Lock()
	m.retries++
	m.mu.Unlock()
}

// fail counts one attempted op that failed its check; the first few
// reasons are kept for standard error.
func (m *meter) fail(format string, args ...any) {
	m.mu.Lock()
	m.attempted++
	m.failed++
	if len(m.failures) < 10 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
	m.mu.Unlock()
}

// window is one measured run of a workload: whole epochs until the
// requested seconds are used up.
type window struct {
	wall     time.Duration
	cpu      time.Duration // process user+sys
	liveHeap float64       // median live heap above the post-set-up baseline, over the window's GC cycles
	epochs   int
}

// measure runs epochs until secs have passed, always finishing the epoch
// in progress so every run ends at an epoch boundary, in the same state.
//
// Every 50 ms it reads the heap the last GC found live, once per GC cycle.
// The median over cycles is what the program holds while it works; the
// maximum would mostly read which request happened to be in flight when
// one collection ran.
func measure(b bench, secs float64, m *meter) window {
	runtime.GC()
	base := float64(liveHeap())
	stop := make(chan struct{})
	live := make(chan []float64)
	go func() {
		var samples []float64
		var cycle uint64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if c := gcCycles(); c != cycle {
					cycle = c
					samples = append(samples, float64(liveHeap())-base)
				}
			case <-stop:
				live <- samples
				return
			}
		}
	}()
	cpu0 := cpuTime()
	t0 := time.Now()
	w := window{}
	for {
		id := m.spans.begin("epoch", 0)
		b.epoch(m, id)
		m.spans.end(id)
		w.epochs++
		if time.Since(t0).Seconds() >= secs {
			break
		}
	}
	w.wall = time.Since(t0)
	w.cpu = cpuTime() - cpu0
	close(stop)
	w.liveHeap = max(0, medianFloat(<-live))
	return w
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "bench: getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var heapSample = []runtimemetrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeap is the heap the last GC found live. Heap in use would mostly
// read the collector's headroom, which scales with the corpora the
// benchmark holds, not with the program's own state.
func liveHeap() uint64 {
	runtimemetrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

var gcSample = []runtimemetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}

func gcCycles() uint64 {
	runtimemetrics.Read(gcSample)
	return gcSample[0].Value.Uint64()
}

var allocSample = []runtimemetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// allocs is the cumulative count of heap objects allocated.
func allocs() uint64 {
	runtimemetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// percentile returns the q-quantile (0..1) of ds by the nearest-rank rule.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// span is one timed call the benchmark made into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: no parent
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the span log was created
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its ID, which end closes and children
// name as their parent. A nil log records nothing and returns 0, so
// untraced runs pay one branch per call.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Workload: l.workload, StartNs: now})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNs = now
	l.mu.Unlock()
}
