package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// shareLayers are the layers whose share of op CPU and wall time the
// traced run reports; "unexplained" is what no replayed layer accounts for.
var shareLayers = []string{
	"trace.decode", "pipeline.handoff", "core.apply", "pipeline.merge",
	"core.split_merge", "core.snapshot", "server.http", "unexplained",
}

// perLayer lists the per-layer metrics of BENCHMARK.json, in report order.
// Every workload reports all of them; a layer the workload does not
// exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"trace.decode_v1.ns_per_event", "ns"},
		{"trace.decode_v2.ns_per_event", "ns"},
		{"trace.decode.allocs_per_event", "count"},
		{"trace.plan.us_per_op", "us"},
		{"pipeline.handoff.ns_per_event", "ns"},
		{"pipeline.merge.ms_per_op", "ms"},
		{"pipeline.stalls_per_batch", "count"},
		{"pipeline.queue_highwater", "count"},
		{"pipeline.shard_skew", "ratio"},
		{"pipeline.speedup_2w", "ratio"},
		{"core.apply.ns_per_event", "ns"},
		{"core.apply.allocs_per_event", "count"},
		{"core.window.ns_per_event", "ns"},
		{"taint.store_ops_per_event", "count"},
		{"taint.add.ns_per_op", "ns"},
		{"taint.remove.ns_per_op", "ns"},
		{"taint.overlaps.ns_per_op", "ns"},
		{"core.tainted_load_ratio", "ratio"},
		{"core.taint_ops_per_event", "count"},
		{"core.max_ranges", "count"},
		{"core.snapshot.encode_us", "us"},
		{"core.snapshot.decode_us", "us"},
		{"core.snapshot.bytes", "B"},
		{"core.split_merge.us_per_op", "us"},
		{"server.handler.ms_mean", "ms"},
		{"server.http.ms_mean", "ms"},
		{"server.query_p50_ms", "ms"},
		{"server.query_tail_ms", "ms"},
		{"server.parallel_share", "ratio"},
		{"server.fallback_ratio", "ratio"},
		{"server.spool_bytes_per_event", "B"},
		{"server.hydrates_per_op", "count"},
		{"server.dehydrates_per_op", "count"},
		{"server.spill_batch_sessions", "count"},
		{"server.peek_cache_hit_ratio", "ratio"},
		{"server.retry_ratio", "ratio"},
		{"server.live_bytes_highwater", "B"},
		{"tracing.overhead", "ratio"},
	}
	for _, l := range shareLayers {
		out = append(out, struct{ name, unit string }{l + ".cpu_share", "ratio"})
		out = append(out, struct{ name, unit string }{l + ".wall_share", "ratio"})
	}
	return out
}()

// layerRun carries the traced window into a workload's replays and
// collects what they measure.
type layerRun struct {
	m     *meter
	win   window
	delta metrics.Snapshot // registry counters and gauges over the window
	sz    sizes
	vals  map[string]float64
	cost  map[string]float64 // ns per op, by share layer
	spans int                // parent span of the replays
}

func (lr *layerRun) set(name string, v float64) { lr.vals[name] = v }

// ops is the number of ops of the traced window.
func (lr *layerRun) ops() float64 { return float64(len(lr.m.ops)) }

// counter is a registry counter's increase over the window.
func (lr *layerRun) counter(name string) float64 { return float64(lr.delta.Counters[name]) }

// runTraced repeats the workload with the program's metrics registry and
// spans attached, then replays its inputs layer by layer. base is the
// untraced events_per_s of a fresh process, for the tracing overhead.
func runTraced(w workload, sz sizes, seed int64, secs, base float64, spansPath string) (*report, stamp, *meter, error) {
	b, err := w.setup(sz, seed, true)
	if err != nil {
		return nil, stamp{}, nil, err
	}
	defer b.close()
	if err := b.start(); err != nil {
		return nil, stamp{}, nil, err
	}
	m := &meter{spans: newSpanLog(w.name)}
	reg := b.registry()
	before := reg.Snapshot()
	win := measure(b, secs, m)
	after := reg.Snapshot()

	lr := &layerRun{m: m, win: win, delta: after, sz: sz, vals: map[string]float64{}, cost: map[string]float64{}}
	for k, v := range before.Counters {
		lr.delta.Counters[k] -= v
	}
	for k, v := range before.Histograms {
		h := lr.delta.Histograms[k]
		h.Count -= v.Count
		h.Sum -= v.Sum
		lr.delta.Histograms[k] = h
	}
	lr.spans = m.spans.begin("replay", 0)
	if err := b.layers(lr); err != nil {
		return nil, stamp{}, nil, err
	}
	m.spans.end(lr.spans)

	eps := div(float64(m.events), win.wall.Seconds())
	if base > 0 {
		lr.set("tracing.overhead", 1-eps/base)
	}
	lr.shares()

	r := &report{}
	r.add("events_per_s.traced", eps, "1/s")
	r.add("events_per_s.untraced", base, "1/s")
	for _, p := range perLayer {
		r.add(p.name, lr.vals[p.name], p.unit)
	}
	st := newStamp(w, seed, 1, m, win)
	if spansPath != "" {
		if err := writeSpans(spansPath, st, m.spans); err != nil {
			return nil, stamp{}, nil, err
		}
	}
	return r, st, m, nil
}

// shares turns the per-op layer costs into shares of the window's CPU
// time and of its wall time on sizedCPUs CPUs.
func (lr *layerRun) shares() {
	cpuPerOp := div(float64(lr.win.cpu), lr.ops())
	wallPerOp := div(sizedCPUs*float64(lr.win.wall), lr.ops())
	var cpuSum, wallSum float64
	for _, l := range shareLayers[:len(shareLayers)-1] {
		c := lr.cost[l]
		lr.set(l+".cpu_share", div(c, cpuPerOp))
		lr.set(l+".wall_share", div(c, wallPerOp))
		cpuSum += div(c, cpuPerOp)
		wallSum += div(c, wallPerOp)
	}
	if lr.ops() > 0 {
		lr.set("unexplained.cpu_share", 1-cpuSum)
		lr.set("unexplained.wall_share", 1-wallSum)
	}
}

func writeSpans(path string, st stamp, l *spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, l.spans}); err != nil {
		f.Close()
		return fmt.Errorf("bench: spans: %w", err)
	}
	return f.Close()
}

// replayBatch is the decode batch of the replays, the pipeline's own.
const replayBatch = pipeline.DefaultBatchSize

// repeat runs f, which returns a per-event or per-op cost, until at least
// 3 runs and 300 ms have passed (at most 30 runs), and returns the median.
func repeat(f func() (float64, error)) (float64, error) {
	var xs []float64
	t0 := time.Now()
	for len(xs) < 3 || (time.Since(t0) < 300*time.Millisecond && len(xs) < 30) {
		x, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return medianFloat(xs), nil
}

// eachBatch decodes stream s batch by batch into buf and hands each batch
// to fn.
func eachBatch(s []byte, buf []cpu.Event, fn func([]cpu.Event)) error {
	r, err := trace.NewReader(bytes.NewReader(s))
	if err != nil {
		return err
	}
	for {
		n, err := r.NextBatch(buf)
		fn(buf[:n])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decodeCost times NextBatch over every stream and counts its allocations.
func decodeCost(streams [][]byte) (nsPerEvent, allocsPerEvent float64, err error) {
	buf := make([]cpu.Event, replayBatch)
	var a0, a1, events uint64
	count := func(evs []cpu.Event) { events += uint64(len(evs)) }
	ns, err := repeat(func() (float64, error) {
		a0, events = allocs(), 0
		t0 := time.Now()
		for _, s := range streams {
			if err := eachBatch(s, buf, count); err != nil {
				return 0, err
			}
		}
		el := time.Since(t0)
		a1 = allocs()
		return div(float64(el), float64(events)), nil
	})
	return ns, div(float64(a1-a0), float64(events)), err
}

// walk decodes and applies each group of streams to one tracker, in
// order, calling at(tr, g, k) before stream k of group g and once more
// after the last one (k = len(group)). It times nothing.
func walk(groups [][][]byte, store func() core.Store, at func(tr *core.Tracker, g, k int) error) error {
	buf := make([]cpu.Event, replayBatch)
	for g, group := range groups {
		var st core.Store
		if store != nil {
			st = store()
		}
		tr := core.NewTracker(trackerConfig, st)
		for k, s := range group {
			if err := at(tr, g, k); err != nil {
				return err
			}
			if err := feed(tr, s, buf, nil); err != nil {
				return err
			}
		}
		if err := at(tr, g, len(group)); err != nil {
			return err
		}
	}
	return nil
}

// feed decodes stream s into tr. When applied is non-nil, the apply of
// each batch is timed into it (decode is not); allocations during apply
// are added to applied.allocs.
func feed(tr *core.Tracker, s []byte, buf []cpu.Event, applied *applyTime) error {
	return eachBatch(s, buf, func(evs []cpu.Event) {
		if applied == nil {
			for _, ev := range evs {
				tr.Event(ev)
			}
			return
		}
		a0 := allocs()
		t0 := time.Now()
		for _, ev := range evs {
			tr.Event(ev)
		}
		applied.d += time.Since(t0)
		applied.allocs += allocs() - a0
		applied.events += uint64(len(evs))
	})
}

type applyTime struct {
	d      time.Duration
	allocs uint64
	events uint64
}

// applyCost times core.Tracker.Event over every group, decode excluded,
// and returns the trackers' merged Stats.
func applyCost(groups [][][]byte) (nsPerEvent, allocsPerEvent float64, st core.Stats, err error) {
	buf := make([]cpu.Event, 4096) // big batches keep the timer reads off the per-event cost
	var last applyTime
	ns, err := repeat(func() (float64, error) {
		last = applyTime{}
		st = core.Stats{}
		for _, group := range groups {
			tr := core.NewTracker(trackerConfig, nil)
			for _, s := range group {
				if err := feed(tr, s, buf, &last); err != nil {
					return 0, err
				}
			}
			st.Merge(tr.Stats())
		}
		return div(float64(last.d), float64(last.events)), nil
	})
	return ns, div(float64(last.allocs), float64(last.events)), st, err
}

// Store ops the counting store tells apart.
const (
	opAdd = iota
	opRemove
	opOverlaps
	opOther // RangeCount, TaintedBytes, Reset: counted, not timed
	numOps
)

// sampleEvery is how often the counting store times a call.
const sampleEvery = 64

// countingStore wraps the ideal store, counts every call and times one in
// sampleEvery of each kind.
type countingStore struct {
	inner *core.IdealStore
	calls [numOps]uint64
	timed [opOther]uint64
	ns    [opOther]time.Duration
}

func (s *countingStore) sampled(op int) bool {
	s.calls[op]++
	return s.calls[op]%sampleEvery == 0
}

func (s *countingStore) record(op int, t0 time.Time) {
	s.ns[op] += time.Since(t0)
	s.timed[op]++
}

func (s *countingStore) Add(pid uint32, r mem.Range) {
	if !s.sampled(opAdd) {
		s.inner.Add(pid, r)
		return
	}
	t0 := time.Now()
	s.inner.Add(pid, r)
	s.record(opAdd, t0)
}

func (s *countingStore) Remove(pid uint32, r mem.Range) bool {
	if !s.sampled(opRemove) {
		return s.inner.Remove(pid, r)
	}
	t0 := time.Now()
	ok := s.inner.Remove(pid, r)
	s.record(opRemove, t0)
	return ok
}

func (s *countingStore) Overlaps(pid uint32, r mem.Range) bool {
	if !s.sampled(opOverlaps) {
		return s.inner.Overlaps(pid, r)
	}
	t0 := time.Now()
	ok := s.inner.Overlaps(pid, r)
	s.record(opOverlaps, t0)
	return ok
}

func (s *countingStore) RangeCount() int      { s.calls[opOther]++; return s.inner.RangeCount() }
func (s *countingStore) TaintedBytes() uint64 { s.calls[opOther]++; return s.inner.TaintedBytes() }
func (s *countingStore) Reset()               { s.calls[opOther]++; s.inner.Reset() }

// timerOverhead is what one time.Now/time.Since pair adds to a sampled
// call, subtracted from the store's per-op times.
func timerOverhead() time.Duration {
	const n = 1 << 16
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return sum / n
}

// coreLayers replays groups through decode, apply and the counting store,
// fills the trace.decode, core.* and taint.* metrics and the decode and
// apply costs of one op of opEvents events.
func (lr *layerRun) coreLayers(groups [][][]byte, v1 bool, opEvents float64) error {
	var streams [][]byte
	for _, g := range groups {
		streams = append(streams, g...)
	}
	sp := lr.m.spans.begin("trace.decode", lr.spans)
	decNs, decAllocs, err := decodeCost(streams)
	lr.m.spans.end(sp)
	if err != nil {
		return err
	}
	decName := "trace.decode_v2.ns_per_event"
	if v1 {
		decName = "trace.decode_v1.ns_per_event"
	}
	lr.set(decName, decNs)
	lr.set("trace.decode.allocs_per_event", decAllocs)

	sp = lr.m.spans.begin("core.apply", lr.spans)
	applyNs, applyAllocs, st, err := applyCost(groups)
	lr.m.spans.end(sp)
	if err != nil {
		return err
	}
	lr.set("core.apply.ns_per_event", applyNs)
	lr.set("core.apply.allocs_per_event", applyAllocs)
	events := float64(st.Loads + st.Stores + st.SourceRegs + st.SinkChecks)
	lr.set("core.tainted_load_ratio", div(float64(st.TaintedLoads), float64(st.Loads)))
	lr.set("core.taint_ops_per_event", div(float64(st.TaintOps+st.UntaintOps), events))
	lr.set("core.max_ranges", float64(st.MaxRanges))

	sp = lr.m.spans.begin("taint.store", lr.spans)
	var stores []*countingStore
	err = walk(groups, func() core.Store {
		cs := &countingStore{inner: core.NewIdealStore()}
		stores = append(stores, cs)
		return cs
	}, func(*core.Tracker, int, int) error { return nil })
	lr.m.spans.end(sp)
	if err != nil {
		return err
	}
	var calls [numOps]uint64
	var timed [opOther]uint64
	var ns [opOther]time.Duration
	for _, cs := range stores {
		for i := range calls {
			calls[i] += cs.calls[i]
		}
		for i := range timed {
			timed[i] += cs.timed[i]
			ns[i] += cs.ns[i]
		}
	}
	over := float64(timerOverhead())
	var perOp [opOther]float64
	var storeNs float64
	for i := range perOp {
		perOp[i] = max(0, div(float64(ns[i]), float64(timed[i]))-over)
		storeNs += perOp[i] * float64(calls[i])
	}
	total := calls[opAdd] + calls[opRemove] + calls[opOverlaps] + calls[opOther]
	lr.set("taint.store_ops_per_event", div(float64(total), events))
	lr.set("taint.add.ns_per_op", perOp[opAdd])
	lr.set("taint.remove.ns_per_op", perOp[opRemove])
	lr.set("taint.overlaps.ns_per_op", perOp[opOverlaps])
	lr.set("core.window.ns_per_event", applyNs-div(storeNs, events))

	lr.cost["trace.decode"] = decNs * opEvents
	lr.cost["core.apply"] = applyNs * opEvents
	return nil
}

// shardSkew is the largest shard's event count over the mean, for the
// pipeline's PID routing at drainWorkers shards.
func shardSkew(streams [][]byte) (float64, error) {
	counts := make([]float64, drainWorkers)
	buf := make([]cpu.Event, replayBatch)
	for _, s := range streams {
		err := eachBatch(s, buf, func(evs []cpu.Event) {
			for _, ev := range evs {
				counts[pipeline.ShardOf(ev.PID, drainWorkers)]++
			}
		})
		if err != nil {
			return 0, err
		}
	}
	var sum, hi float64
	for _, c := range counts {
		sum += c
		hi = max(hi, c)
	}
	return div(hi, sum/float64(len(counts))), nil
}

// planCost times LoadIndex plus PlanSegments over each stream, in µs per
// stream.
func planCost(streams [][]byte) (float64, error) {
	return repeat(func() (float64, error) {
		t0 := time.Now()
		for _, s := range streams {
			idx, err := trace.LoadIndex(bytes.NewReader(s))
			if err != nil {
				return 0, err
			}
			idx.PlanSegments(drainWorkers, pipeline.DefaultBatchSize)
		}
		return div(float64(time.Since(t0))/1e3, float64(len(streams))), nil
	})
}

// pipelineMetrics fills the metrics the pipeline's own registry counts.
func (lr *layerRun) pipelineMetrics() {
	lr.set("pipeline.stalls_per_batch", div(lr.counter("pift_pipeline_backpressure_stalls_total"), lr.counter("pift_pipeline_batches_total")))
	lr.set("pipeline.queue_highwater", float64(lr.delta.Gauges["pift_pipeline_queue_depth_highwater"]))
}

func (d *drainBench) registry() *metrics.Registry { return d.reg }

// layers: decode, plan, apply and store on the file; the 1-worker drain's
// CPU for the handoff; 1- against 2-worker wall time for the speedup.
func (d *drainBench) layers(lr *layerRun) error {
	E := float64(d.events)
	if err := lr.coreLayers([][][]byte{{d.raw}}, d.name == "drain", E); err != nil {
		return err
	}
	plan, err := planCost([][]byte{d.raw})
	if err != nil {
		return err
	}
	lr.set("trace.plan.us_per_op", plan)
	skew, err := shardSkew([][]byte{d.raw})
	if err != nil {
		return err
	}
	lr.set("pipeline.shard_skew", skew)
	lr.pipelineMetrics()
	mergeMs := div(float64(d.mergeNs)/1e6, float64(d.mergeCount))
	lr.set("pipeline.merge.ms_per_op", mergeMs)
	lr.cost["pipeline.merge"] = mergeMs * 1e6

	sp := lr.m.spans.begin("pipeline.DrainTrace.1w", lr.spans)
	var cpu1, wall1, wall2 []float64
	for i := 0; i < lr.sz.drains; i++ {
		runtime.GC()
		c0 := cpuTime()
		el, err := d.drain(1, nil)
		if err != nil {
			return err
		}
		cpu1 = append(cpu1, float64(cpuTime()-c0))
		wall1 = append(wall1, float64(el))
	}
	lr.m.spans.end(sp)
	sp = lr.m.spans.begin("pipeline.DrainTrace.2w", lr.spans)
	for i := 0; i < lr.sz.drains; i++ {
		el, err := d.drain(drainWorkers, nil)
		if err != nil {
			return err
		}
		wall2 = append(wall2, float64(el))
	}
	lr.m.spans.end(sp)
	handoff := medianFloat(cpu1)/E - lr.vals["trace.decode_v1.ns_per_event"] -
		lr.vals["trace.decode_v2.ns_per_event"] - lr.vals["core.apply.ns_per_event"]
	lr.set("pipeline.handoff.ns_per_event", handoff)
	lr.cost["pipeline.handoff"] = handoff * E
	if runtime.NumCPU() >= drainWorkers {
		lr.set("pipeline.speedup_2w", div(medianFloat(wall1), medianFloat(wall2)))
	}
	return nil
}

// serverMetrics fills the metrics the server's registry and the client's
// own timings give.
func (lr *layerRun) serverMetrics(queryTail float64, liveHigh int64) {
	posts := lr.ops()
	h := lr.delta.Histograms["pift_server_ingest_seconds"]
	handlerMs := div(h.Sum*1e3, float64(h.Count))
	httpMs := ms(mean(lr.m.ops)) - handlerMs
	lr.set("server.handler.ms_mean", handlerMs)
	lr.set("server.http.ms_mean", httpMs)
	lr.cost["server.http"] = httpMs * 1e6
	lr.set("server.query_p50_ms", ms(percentile(lr.m.queries, 0.5)))
	lr.set("server.query_tail_ms", ms(percentile(lr.m.queries, queryTail)))
	par, fb := lr.counter("pift_server_parallel_ingests_total"), lr.counter("pift_server_parallel_fallbacks_total")
	lr.set("server.parallel_share", div(par, posts))
	lr.set("server.fallback_ratio", div(fb, par+fb))
	lr.set("server.spool_bytes_per_event", div(lr.counter("pift_server_spool_bytes_total"), float64(lr.m.events)))
	lr.set("server.hydrates_per_op", div(lr.counter("pift_server_hydrates_total"), posts))
	lr.set("server.dehydrates_per_op", div(lr.counter("pift_server_dehydrates_total"), posts))
	lr.set("server.spill_batch_sessions", div(lr.counter("pift_server_spill_batch_sessions_total"), lr.counter("pift_server_spill_batches_total")))
	hits, misses := lr.counter("pift_server_peek_cache_hits_total"), lr.counter("pift_server_peek_cache_misses_total")
	lr.set("server.peek_cache_hit_ratio", div(hits, hits+misses))
	lr.set("server.retry_ratio", div(float64(lr.m.retries), float64(lr.m.attempted)))
	lr.set("server.live_bytes_highwater", float64(liveHigh))
}

func (u *uploadBench) registry() *metrics.Registry { return u.reg }

// layers: decode, plan, apply and store on the chunks; split plus merge of
// each tenant's tracker at every chunk boundary, as the parallel route
// does before each chunk.
func (u *uploadBench) layers(lr *layerRun) error {
	C := float64(u.chunk)
	if err := lr.coreLayers(u.chunks, false, C); err != nil {
		return err
	}
	var streams [][]byte
	for _, g := range u.chunks {
		streams = append(streams, g...)
	}
	plan, err := planCost(streams)
	if err != nil {
		return err
	}
	lr.set("trace.plan.us_per_op", plan)
	skew, err := shardSkew(streams)
	if err != nil {
		return err
	}
	lr.set("pipeline.shard_skew", skew)
	lr.pipelineMetrics()
	lr.serverMetrics(0.90, u.liveHigh)
	mergeMs := div(float64(u.mergeNs)/1e6, float64(u.mergeCount))
	lr.set("pipeline.merge.ms_per_op", mergeMs)
	lr.cost["pipeline.merge"] = mergeMs * 1e6 * lr.vals["server.parallel_share"]

	sp := lr.m.spans.begin("core.SplitByPID+MergeTrackers", lr.spans)
	var d time.Duration
	var n int
	err = walk(u.chunks, nil, func(tr *core.Tracker, g, k int) error {
		if k == len(u.chunks[g]) {
			return nil
		}
		t0 := time.Now()
		parts, err := tr.SplitByPID(drainWorkers, func(pid uint32) int { return pipeline.ShardOf(pid, drainWorkers) })
		if err != nil {
			return err
		}
		if _, err := core.MergeTrackers(parts); err != nil {
			return err
		}
		d += time.Since(t0)
		n++
		return nil
	})
	lr.m.spans.end(sp)
	if err != nil {
		return err
	}
	us := div(float64(d)/1e3, float64(n))
	lr.set("core.split_merge.us_per_op", us)
	lr.cost["core.split_merge"] = us * 1e3 * lr.vals["server.parallel_share"]
	return nil
}

func (s *spillBench) registry() *metrics.Registry { return s.reg }

// layers: decode, apply and store on the chunks; PIFTSNP1 encode and
// decode of every tenant tracker at every round, which is what a
// dehydrate, a hydrate and a cache-missing query pay.
func (s *spillBench) layers(lr *layerRun) error {
	if err := lr.coreLayers(s.chunks, false, float64(s.chunk)); err != nil {
		return err
	}
	lr.serverMetrics(0.99, s.liveHigh)

	sp := lr.m.spans.begin("core.WriteSnapshot+ReadSnapshot", lr.spans)
	var enc, dec time.Duration
	var size, n int
	var buf bytes.Buffer
	err := walk(s.chunks, nil, func(tr *core.Tracker, _, k int) error {
		if k == 0 {
			return nil
		}
		buf.Reset()
		t0 := time.Now()
		if _, err := tr.WriteSnapshot(&buf); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := core.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		dec += time.Since(t1)
		enc += t1.Sub(t0)
		size += buf.Len()
		n++
		return nil
	})
	lr.m.spans.end(sp)
	if err != nil {
		return err
	}
	encUs, decUs := div(float64(enc)/1e3, float64(n)), div(float64(dec)/1e3, float64(n))
	lr.set("core.snapshot.encode_us", encUs)
	lr.set("core.snapshot.decode_us", decUs)
	lr.set("core.snapshot.bytes", div(float64(size), float64(n)))
	posts := lr.ops()
	decodes := lr.counter("pift_server_hydrates_total") + lr.counter("pift_server_peek_cache_misses_total")
	lr.cost["core.snapshot"] = 1e3 * (decUs*div(decodes, posts) + encUs*lr.vals["server.dehydrates_per_op"])
	return nil
}
