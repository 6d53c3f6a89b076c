package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
)

// ingestWorkers pins the server's parallel-ingest width and worker budget,
// so the routes a request takes do not depend on the machine's CPU count.
const ingestWorkers = sizedCPUs

// service is one server behind a real loopback listener.
type service struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
}

func startService(cfg server.Config) (*service, error) {
	dir, err := os.MkdirTemp("", "pift-bench-spill-*")
	if err != nil {
		return nil, fmt.Errorf("bench: spill dir: %w", err)
	}
	cfg.Tracker = trackerConfig
	cfg.SpillDir = dir
	cfg.IngestWorkers = ingestWorkers
	cfg.WorkerBudget = ingestWorkers
	srv, err := server.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	return &service{srv: srv, ts: ts, client: ts.Client(), dir: dir}, nil
}

func (s *service) close() {
	s.ts.Close()
	os.RemoveAll(s.dir)
}

// onlyReader hides a body's length, so the client sends it with chunked
// transfer encoding and the server sees no Content-Length.
type onlyReader struct{ io.Reader }

// retryBackoff is how long a client waits before retrying a 429. The
// server's Retry-After hint (1 s) would stall a closed loop for a lock that
// is held for a millisecond; retrying at once would spin both CPUs.
const retryBackoff = time.Millisecond

// post uploads one chunk that starts at event offset off and returns the
// server's ack, retrying 429s.
func (s *service) post(m *meter, id string, off uint64, body []byte, chunked bool) (uint64, error) {
	for {
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = onlyReader{rd}
		}
		req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/sessions/"+id+"/events", rd)
		if err != nil {
			return 0, err
		}
		req.Header.Set("PIFT-Offset", strconv.FormatUint(off, 10))
		var ir server.IngestResponse
		status, err := s.do(req, &ir)
		if err != nil {
			return 0, err
		}
		switch status {
		case http.StatusTooManyRequests:
			m.retry()
			time.Sleep(retryBackoff)
			continue
		case http.StatusOK:
			return ir.Acked, nil
		}
		return ir.Acked, fmt.Errorf("POST %s at %d: status %d (%s: %s)", id, off, status, ir.Error, ir.Detail)
	}
}

// verdicts reads a session's verdicts (GET, or DELETE to finalize),
// retrying 429s, and returns them in canonical order with the ack.
// A 404 comes back as status with no error.
func (s *service) verdicts(m *meter, method, id string) (int, uint64, []core.SinkVerdict, error) {
	url := s.ts.URL + "/v1/sessions/" + id
	if method == http.MethodGet {
		url += "/verdicts"
	}
	for {
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			return 0, 0, nil, err
		}
		var vr server.VerdictsResponse
		status, err := s.do(req, &vr)
		if err != nil {
			return status, 0, nil, err
		}
		switch status {
		case http.StatusTooManyRequests:
			m.retry()
			time.Sleep(retryBackoff)
			continue
		case http.StatusNotFound:
			return status, 0, nil, nil
		case http.StatusOK:
			out := make([]core.SinkVerdict, len(vr.Verdicts))
			for i, v := range vr.Verdicts {
				out[i] = core.SinkVerdict{Tag: v.Tag, PID: v.PID, Seq: v.Seq, Tainted: v.Tainted}
			}
			core.SortVerdicts(out)
			return status, vr.Acked, out, nil
		}
		return status, 0, nil, fmt.Errorf("%s %s: status %d", method, id, status)
	}
}

// do sends req and decodes the JSON reply into v. A reply that is not
// JSON (a 404 from the mux, say) leaves v zero.
func (s *service) do(req *http.Request, v any) (int, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(v) // error replies are checked by status
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// uploadBench: tenants upload whole corpora in large resumable chunks,
// one tenant at a time, then read and finalize their verdicts.
type uploadBench struct {
	svc    *service
	reg    *metrics.Registry
	chunks [][][]byte // [corpus][chunk] PIFTTRC2 bodies
	total  []int      // [corpus] events
	want   []oracle
	chunk  int // events per chunk
	epochN int

	mergeNs      int64
	mergeCount   int
	parallelSeen uint64
	liveHigh     int64
}

// setupUpload builds the upload workload. The server always runs with a
// metrics registry, as a deployed server does.
func setupUpload(sz sizes, seed int64, _ bool) (bench, error) {
	u := &uploadBench{reg: metrics.NewRegistry(), chunk: sz.uploadChunk}
	for i := 0; i < sz.uploadCorpora; i++ {
		evs := genCorpus(corpusSeed(seed, i), sz.uploadEvents, 64, 0, false)
		ch, err := encodeChunks(evs, sz.uploadChunk)
		if err != nil {
			return nil, err
		}
		u.chunks = append(u.chunks, ch)
		u.total = append(u.total, len(evs))
		u.want = append(u.want, replayOracle(evs))
	}
	return u, nil
}

// start starts the server and warms it up with one tenant per route.
func (u *uploadBench) start() error {
	svc, err := startService(server.Config{Registry: u.reg})
	if err != nil {
		return err
	}
	u.svc = svc
	var m meter
	for i := 0; i < min(2, len(u.chunks)); i++ {
		u.tenant(&m, 0, fmt.Sprintf("warm-%d", i), i)
	}
	if m.failed > 0 {
		return fmt.Errorf("bench: upload warm-up: %s", m.failures[0])
	}
	return nil
}

// epoch runs one tenant per corpus. Even tenants send Content-Length
// bodies (the server spools them), odd tenants send chunked bodies (the
// server streams them).
func (u *uploadBench) epoch(m *meter, parent int) {
	for i := range u.chunks {
		u.tenant(m, parent, fmt.Sprintf("u%d-%d", u.epochN, i), i)
	}
	u.epochN++
}

func (u *uploadBench) tenant(m *meter, parent int, id string, corpus int) {
	chunked := corpus%2 == 1
	var off uint64
	for _, body := range u.chunks[corpus] {
		n := uint64(min(u.chunk, u.total[corpus]-int(off)))
		sp := m.spans.begin("http.POST", parent)
		t0 := time.Now()
		ack, err := u.svc.post(m, id, off, body, chunked)
		el := time.Since(t0)
		m.spans.end(sp)
		if err == nil && ack != off+n {
			err = fmt.Errorf("POST %s at %d: acked %d, want %d", id, off, ack, off+n)
		}
		if err != nil {
			m.fail("upload: %v", err)
			u.svc.verdicts(m, http.MethodDelete, id)
			return
		}
		m.op(el, n, uint64(len(body)))
		off += n
		u.sample()
	}
	want := u.want[corpus].verdicts
	sp := m.spans.begin("http.GET", parent)
	t0 := time.Now()
	status, ack, got, err := u.svc.verdicts(m, http.MethodGet, id)
	el := time.Since(t0)
	m.spans.end(sp)
	if err == nil && (status != http.StatusOK || ack != off) {
		err = fmt.Errorf("GET %s: status %d, acked %d of %d", id, status, ack, off)
	}
	if err == nil {
		err = equalVerdicts(got, want)
	}
	if err != nil {
		m.fail("upload: GET %s: %v", id, err)
	} else {
		m.query(el)
	}
	sp = m.spans.begin("http.DELETE", parent)
	status, _, got, err = u.svc.verdicts(m, http.MethodDelete, id)
	m.spans.end(sp)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = equalVerdicts(got, want)
	}
	if err != nil {
		m.fail("upload: DELETE %s: %v", id, err)
	} else {
		m.other()
	}
}

// sample reads the registry gauges that hold only their latest value. The
// merge gauge is the last pipeline's, so it counts only after a POST that
// went through the parallel route.
func (u *uploadBench) sample() {
	if p := u.reg.Counter("pift_server_parallel_ingests_total", "").Value(); p > u.parallelSeen {
		u.parallelSeen = p
		u.mergeNs += u.reg.Gauge("pift_pipeline_merge_duration_ns", "").Value()
		u.mergeCount++
	}
	u.liveHigh = max(u.liveHigh, u.reg.Gauge("pift_server_live_bytes", "").Value())
}

func (u *uploadBench) close() {
	if u.svc != nil {
		u.svc.close()
	}
}

// spillClients is the spill workload's closed-loop client count.
const spillClients = sizedCPUs

// spillBench: many tenants trickle small chunks round-robin into a server
// whose memory budget holds only a fraction of them, so most uploads
// hydrate a spilled session; each upload is followed by a verdict read of
// a Zipf-chosen tenant.
type spillBench struct {
	reg     *metrics.Registry
	seed    int64
	chunks  [][][]byte             // [corpus][round] PIFTTRC2 bodies
	total   []int                  // [corpus] events
	prefix  [][][]core.SinkVerdict // [corpus][k]: canonical verdicts after k chunks
	perm    []int                  // Zipf rank -> tenant
	tenants int
	chunk   int
	budget  int64
	epochN  int

	liveHigh int64
	mu       sync.Mutex // guards liveHigh; both clients sample it
}

func setupSpill(sz sizes, seed int64, _ bool) (bench, error) {
	s := &spillBench{reg: metrics.NewRegistry(), seed: seed, tenants: sz.spillTenants, chunk: sz.spillChunk, budget: sz.spillBudget}
	for i := 0; i < sz.spillCorpora; i++ {
		evs := genCorpus(corpusSeed(seed, i), sz.spillEvents, 8, 0, false)
		ch, err := encodeChunks(evs, sz.spillChunk)
		if err != nil {
			return nil, err
		}
		tr := core.NewTracker(trackerConfig, nil)
		pre := [][]core.SinkVerdict{nil}
		for at := 0; at < len(evs); at += sz.spillChunk {
			for _, ev := range evs[at:min(at+sz.spillChunk, len(evs))] {
				tr.Event(ev)
			}
			pre = append(pre, sortedVerdicts(tr.Verdicts()))
		}
		s.chunks = append(s.chunks, ch)
		s.total = append(s.total, len(evs))
		s.prefix = append(s.prefix, pre)
	}
	s.perm = rand.New(rand.NewSource(seed)).Perm(s.tenants)
	return s, nil
}

// start warms up with a short epoch on a throwaway server.
func (s *spillBench) start() error {
	var m meter
	if err := s.run(&m, 0, 2); err != nil {
		return err
	}
	if m.failed > 0 {
		return fmt.Errorf("bench: spill warm-up: %s", m.failures[0])
	}
	return nil
}

func (s *spillBench) epoch(m *meter, parent int) {
	if err := s.run(m, parent, len(s.chunks[0])); err != nil {
		m.fail("spill: %v", err)
	}
	s.epochN++
}

// run is one epoch: a fresh server, every tenant through the given number
// of rounds, the server torn down.
func (s *spillBench) run(m *meter, parent, rounds int) error {
	svc, err := startService(server.Config{Registry: s.reg, MemoryBudget: s.budget})
	if err != nil {
		return err
	}
	defer svc.close()
	acks := make([]atomic.Uint64, s.tenants) // last ack each tenant's client has seen
	var wg sync.WaitGroup
	for c := 0; c < spillClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.seed*31 + int64(s.epochN)*7 + int64(c)))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(s.tenants-1))
			for r := 0; r < rounds; r++ {
				for t := c; t < s.tenants; t += spillClients {
					s.upload(m, svc, parent, acks, t, r)
					s.query(m, svc, parent, acks, s.perm[zipf.Uint64()])
				}
			}
		}(c)
	}
	wg.Wait()
	return nil
}

func (s *spillBench) upload(m *meter, svc *service, parent int, acks []atomic.Uint64, t, r int) {
	corpus := t % len(s.chunks)
	if acks[t].Load() != uint64(r*s.chunk) {
		return // an earlier round of this tenant failed; its later rounds would gap
	}
	body := s.chunks[corpus][r]
	off := uint64(r * s.chunk)
	n := uint64(min(s.chunk, s.total[corpus]-int(off)))
	id := "t" + strconv.Itoa(t)
	sp := m.spans.begin("http.POST", parent)
	t0 := time.Now()
	ack, err := svc.post(m, id, off, body, false)
	el := time.Since(t0)
	m.spans.end(sp)
	if err == nil && ack != off+n {
		err = fmt.Errorf("POST %s at %d: acked %d, want %d", id, off, ack, off+n)
	}
	if err != nil {
		m.fail("spill: %v", err)
		return
	}
	acks[t].Store(ack)
	m.op(el, n, uint64(len(body)))
	v := s.reg.Gauge("pift_server_live_bytes", "").Value()
	s.mu.Lock()
	s.liveHigh = max(s.liveHigh, v)
	s.mu.Unlock()
}

// query reads tenant t's verdicts and checks them against the oracle's
// verdicts at the returned ack. A tenant with no upload acknowledged
// before the read was sent may legitimately be unknown (404).
func (s *spillBench) query(m *meter, svc *service, parent int, acks []atomic.Uint64, t int) {
	known := acks[t].Load()
	id := "t" + strconv.Itoa(t)
	sp := m.spans.begin("http.GET", parent)
	t0 := time.Now()
	status, ack, got, err := svc.verdicts(m, http.MethodGet, id)
	el := time.Since(t0)
	m.spans.end(sp)
	if err == nil {
		err = s.checkPrefix(t, status, known, ack, got)
	}
	if err != nil {
		m.fail("spill: GET %s: %v", id, err)
		return
	}
	m.query(el)
}

func (s *spillBench) checkPrefix(t, status int, known, ack uint64, got []core.SinkVerdict) error {
	if status == http.StatusNotFound {
		if known != 0 {
			return fmt.Errorf("unknown session after an ack of %d", known)
		}
		return nil
	}
	pre := s.prefix[t%len(s.chunks)]
	k := int(ack) / s.chunk
	if ack < known || ack%uint64(s.chunk) != 0 || k >= len(pre) {
		return fmt.Errorf("acked %d (client saw %d, chunk %d)", ack, known, s.chunk)
	}
	return equalVerdicts(got, pre[k])
}

func (s *spillBench) close() {}
