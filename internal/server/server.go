// Package server turns the PIFT analysis pipeline into a long-running
// multi-tenant taint service — the paper's decoupled analysis core
// (§3) lifted to a network boundary. Devices ship their recorded event
// streams (the trace wire format, chunked or whole) over HTTP; the server
// runs one logical core.Tracker session per tenant and answers taint
// queries about it.
//
// The serving model, in one paragraph: every tenant ID owns a session.
// Live sessions hold a tracker in memory and are charged an estimated
// footprint against a configurable byte budget; when the budget
// overflows, the coldest sessions dehydrate — their complete state
// serialized through the canonical PIFTSNP1 snapshot codec into a spill
// file — and rehydrate transparently on next touch, byte-identical. That
// LRU spill loop is what lets tens of thousands of logical sessions share
// a laptop's worth of memory. Ingestion is admission-controlled twice: a
// global cap on concurrent streams, and per-tenant serialization (one
// stream per session at a time); both reject with 429 + Retry-After
// rather than queueing unboundedly. Each session tracks an acknowledged
// event offset — its checkpoint — so a client cut off mid-stream re-sends
// from the ack and the merged stream is exactly what an uninterrupted
// upload would have been.
//
// Endpoints (register on any mux, conventionally the /metrics mux):
//
//	POST   /v1/sessions/{id}/events    ingest a trace stream for tenant {id}
//	GET    /v1/sessions/{id}/verdicts  sink verdicts recorded so far
//	GET    /v1/sessions/{id}/stats     tracker stats + session state
//	DELETE /v1/sessions/{id}           finalize: return verdicts, free state
//	GET    /v1/sessions                list sessions (id, state, ack)
//
// The ingest request may set PIFT-Offset to the absolute event offset of
// the body's first event (default 0). Offsets at or before the session's
// ack deduplicate — already-applied events are skipped; an offset past
// the ack is a gap and is refused with 409. Every ingest response carries
// PIFT-Ack-Offset, the session's new checkpoint.
package server

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// Tracker is the window configuration every session runs.
	Tracker core.Config
	// SpillDir is where dehydrated sessions live. Required. Spill files
	// found at startup are recovered as dormant sessions.
	SpillDir string
	// MemoryBudget bounds the estimated resident bytes of live tracker
	// state; past it, cold sessions spill. <= 0 selects 64 MiB.
	MemoryBudget int64
	// MaxStreams caps concurrent ingest streams. <= 0 selects 64.
	MaxStreams int
	// RetryAfter is the backoff hint attached to 429 responses. <= 0
	// selects 1 second.
	RetryAfter time.Duration
	// Registry receives the serving metrics; nil disables them.
	Registry *metrics.Registry

	// IngestWorkers is how many pipeline shards one session's ingest may
	// fan out to. <= 0 selects min(GOMAXPROCS, 8); 1 applies every
	// request to its session tracker in place.
	IngestWorkers int
	// WorkerBudget caps the total pipeline workers loaned out across all
	// concurrently parallel sessions, so a stampede of hot tenants
	// degrades to 1-worker ingest instead of oversubscribing the
	// machine. <= 0 selects max(IngestWorkers, GOMAXPROCS).
	WorkerBudget int
	// ParallelThreshold is the minimum number of new (post-dedup) events
	// a request must carry before its session fans out; smaller bodies
	// run at one worker — the split/merge round trip costs more than it
	// saves. <= 0 selects 65536.
	ParallelThreshold uint64
	// SnapshotCache is how many hydrated peek snapshots of spilled
	// sessions to keep for query traffic. 0 selects 8; negative disables
	// the cache.
	SnapshotCache int
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 64 << 20
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.IngestWorkers <= 0 {
		c.IngestWorkers = runtime.GOMAXPROCS(0)
		if c.IngestWorkers > 8 {
			c.IngestWorkers = 8
		}
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
		if c.WorkerBudget < c.IngestWorkers {
			c.WorkerBudget = c.IngestWorkers
		}
	}
	if c.ParallelThreshold <= 0 {
		c.ParallelThreshold = 65536
	}
	if c.SnapshotCache == 0 {
		c.SnapshotCache = 8
	}
	return c
}

// Server is the multi-tenant taint service. Create with New, attach with
// Register, and it is fully concurrent-safe thereafter.
type Server struct {
	cfg     Config
	m       *serverMetrics
	streams chan struct{}                  // counting semaphore on concurrent ingests
	budget  *workerBudget                  // global loan pool for parallel-ingest shards
	cache   *peekCache                     // hydrated snapshots of spilled sessions; nil when disabled
	observe func(worker int, ev cpu.Event) // pipeline Observer for parallel ingests; tests only

	mu        sync.Mutex
	sessions  map[string]*session
	lru       *list.List // *session, front = hottest; live sessions only
	liveBytes int64
}

// New builds a server, creating the spill directory if needed and
// recovering any sessions a previous process dehydrated into it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Tracker.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.SpillDir == "" {
		return nil, fmt.Errorf("server: SpillDir is required")
	}
	if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		m:        newServerMetrics(cfg.Registry),
		streams:  make(chan struct{}, cfg.MaxStreams),
		budget:   newWorkerBudget(cfg.WorkerBudget),
		cache:    newPeekCache(cfg.SnapshotCache),
		sessions: make(map[string]*session),
		lru:      list.New(),
	}
	if err := s.recoverSpilled(); err != nil {
		return nil, err
	}
	return s, nil
}

// Register attaches the service's routes to mux — typically the mux that
// already serves /metrics and /healthz, so one listener carries both the
// data plane and its observability.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleIngest)
	mux.HandleFunc("GET /v1/sessions/{id}/verdicts", s.handleVerdicts)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", s.handleStats)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleFinalize)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
}

// SessionCount returns (live, spilled) session counts.
func (s *Server) SessionCount() (live, spilled int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live = s.lru.Len()
	return live, len(s.sessions) - live
}

// IngestResponse is the JSON body of every ingest reply, success or error.
type IngestResponse struct {
	Session  string `json:"session"`
	Acked    uint64 `json:"acked"`    // checkpoint: events applied so far
	Ingested uint64 `json:"ingested"` // events applied by this request
	Error    string `json:"error,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// VerdictJSON is one sink verdict on the wire.
type VerdictJSON struct {
	Tag     int    `json:"tag"`
	PID     uint32 `json:"pid"`
	Seq     uint64 `json:"seq"`
	Tainted bool   `json:"tainted"`
}

// VerdictsResponse is the GET /verdicts and DELETE reply body.
type VerdictsResponse struct {
	Session  string        `json:"session"`
	Acked    uint64        `json:"acked"`
	Verdicts []VerdictJSON `json:"verdicts"`
}

// StatsResponse is the GET /stats reply body.
type StatsResponse struct {
	Session  string     `json:"session"`
	State    string     `json:"state"` // "live" or "spilled"
	Acked    uint64     `json:"acked"`
	Verdicts int        `json:"verdicts"`
	Stats    core.Stats `json:"stats"`
}

// SessionSummary is one row of GET /v1/sessions.
type SessionSummary struct {
	Session string `json:"session"`
	State   string `json:"state"`
	Acked   uint64 `json:"acked"`
}

// ListResponse is the GET /v1/sessions reply body.
type ListResponse struct {
	Live     int              `json:"live"`
	Spilled  int              `json:"spilled"`
	Sessions []SessionSummary `json:"sessions"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// reject429 answers an admission-control rejection with the retry hint.
func (s *Server) reject429(w http.ResponseWriter, id, code string) {
	w.Header().Set("Retry-After",
		strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusTooManyRequests, IngestResponse{
		Session: id, Error: code,
	})
}

// ingestBatchSize bounds the per-stream decode scratch (~32 KiB).
const ingestBatchSize = 1024

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Admission gate 1: the global concurrent-stream cap.
	select {
	case s.streams <- struct{}{}:
		defer func() { <-s.streams }()
	default:
		s.m.streamsRejected.Inc()
		s.reject429(w, id, "server-busy")
		return
	}
	s.m.streamsInFlight.Inc()
	defer s.m.streamsInFlight.Dec()

	sess := s.getOrCreate(id)
	// Admission gate 2: per-tenant backpressure — one stream per session.
	if !sess.mu.TryLock() {
		sess.mStalls.Inc()
		s.reject429(w, id, "tenant-busy")
		return
	}

	start := time.Now()
	resp, ierr := s.ingestLocked(sess, r)
	sess.mu.Unlock()
	// Shedding runs after the session lock drops, so the freshly touched
	// session is itself evictable if it alone overflows the budget.
	s.enforceBudget()
	s.m.ingestSeconds.Observe(time.Since(start).Seconds())
	s.m.liveBytes.Set(s.currentLiveBytes())

	status := http.StatusOK
	if ierr != nil {
		s.m.ingestErrors.Inc()
		resp.Error, resp.Detail, status = ierr.Code, ierr.Err.Error(), ierr.Status
	}
	w.Header().Set("PIFT-Ack-Offset", strconv.FormatUint(resp.Acked, 10))
	writeJSON(w, status, resp)
}

// ingestLocked streams one request body into sess's tracker. Caller holds
// sess.mu.
//
// Every request takes one route: trace.NewReader over the body, the dedup
// Skip, then one NextBatch loop. The worker grant decides only where each
// decoded batch goes — straight into the session tracker at grant 1, or
// into a pipeline seeded with the tracker's PID shards at grant > 1, which
// Close and MergeTrackers fold back into one tracker after the loop.
//
// One commit rule covers both grants and both wire formats: the ack
// advances by the events decoded. A cut PIFTTRC1 body acks at the exact
// event the cut landed on, a cut PIFTTRC3 body at the last whole block —
// the reader refuses a torn or CRC-damaged block outright, so no
// partial-block event is ever applied — and the client resends from the
// ack either way. A shard fault commits nothing: the session keeps the
// tracker it had before the request, and the reply is 500 shard-failed.
func (s *Server) ingestLocked(sess *session, r *http.Request) (IngestResponse, *IngestError) {
	resp := IngestResponse{Session: sess.id, Acked: sess.acked.Load()}
	if sess.tr == nil && !sess.spilled.Load() {
		// Finalized by a concurrent DELETE between map fetch and lock.
		return resp, &IngestError{
			Status: http.StatusGone, Code: "finalized",
			Err: fmt.Errorf("session %q was finalized", sess.id),
		}
	}
	if sess.spilled.Load() {
		if err := s.hydrate(sess); err != nil {
			return resp, &IngestError{
				Status: http.StatusInternalServerError, Code: "hydrate-failed", Err: err,
			}
		}
	}

	// Where in the tenant's absolute event stream does this body start?
	var bodyStart uint64
	if h := r.Header.Get("PIFT-Offset"); h != "" {
		v, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			return resp, &IngestError{
				Status: http.StatusBadRequest, Code: "bad-offset",
				Err: fmt.Errorf("PIFT-Offset %q: %w", h, err),
			}
		}
		bodyStart = v
	}
	acked := sess.acked.Load()
	if bodyStart > acked {
		return resp, &IngestError{
			Status: http.StatusConflict, Code: "offset-gap",
			Err: fmt.Errorf("body starts at event %d but session has acknowledged %d", bodyStart, acked),
		}
	}

	cr := &countingBody{r: r.Body}
	defer func() {
		sess.mBytes.Add(uint64(cr.n))
		s.m.ingestBytes.Add(uint64(cr.n))
	}()
	tr, err := trace.NewReader(cr)
	if err != nil {
		return resp, classifyIngest(err)
	}
	// Deduplicate the overlap: events before the ack were applied by an
	// earlier request (or an earlier attempt of this one).
	if skip := acked - bodyStart; skip > 0 {
		if skip >= tr.Len() {
			return resp, nil // the whole body is a duplicate
		}
		if err := tr.Skip(skip); err != nil {
			return resp, classifyIngest(err)
		}
	}

	var p *pipeline.Pipeline
	if grant := s.grantWorkers(tr.Remaining()); grant > 1 {
		defer s.releaseWorkers(grant)
		if p, err = s.seedPipeline(sess, grant); err != nil {
			return resp, shardFailed(sess, err)
		}
	}
	verdictsBefore := len(sess.tr.Verdicts())
	buf := make([]cpu.Event, ingestBatchSize)
	var derr error
	for derr == nil {
		var n int
		n, derr = tr.NextBatch(buf)
		if p != nil {
			p.EventBatch(buf[:n])
		} else {
			sess.tr.EventBatch(buf[:n])
		}
		resp.Ingested += uint64(n)
	}
	if p != nil {
		merged, err := closeAndMerge(p)
		if err != nil {
			resp.Ingested = 0
			return resp, shardFailed(sess, err)
		}
		sess.tr = merged
		s.m.parallelIngests.Inc()
	}

	resp.Acked = sess.acked.Add(resp.Ingested)
	sess.mEvents.Add(resp.Ingested)
	sess.mVerdicts.Add(uint64(len(sess.tr.Verdicts()) - verdictsBefore))
	if resp.Ingested > 0 {
		sess.gen.Add(1)
	}
	s.touch(sess)
	if derr != io.EOF {
		return resp, classifyIngest(derr)
	}
	return resp, nil
}

// countingBody counts bytes drawn from a request body, for per-tenant
// ingress accounting.
type countingBody struct {
	r io.Reader
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) currentLiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes
}

// withSession runs fn with the session's state, hydrating a peek copy for
// spilled sessions without changing their residency — a read-only query
// against 10k dormant sessions must not thrash the LRU.
func (s *Server) withSession(w http.ResponseWriter, r *http.Request, fn func(sess *session, tr *core.Tracker)) {
	id := r.PathValue("id")
	sess := s.lookup(id)
	if sess == nil {
		writeJSON(w, http.StatusNotFound, IngestResponse{Session: id, Error: "unknown-session"})
		return
	}
	if !sess.mu.TryLock() {
		sess.mStalls.Inc()
		s.reject429(w, id, "tenant-busy")
		return
	}
	defer sess.mu.Unlock()
	tr := sess.tr
	if tr == nil && !sess.spilled.Load() {
		writeJSON(w, http.StatusNotFound, IngestResponse{Session: id, Error: "unknown-session"})
		return
	}
	if sess.spilled.Load() {
		var err error
		tr, err = s.peekSnapshot(sess)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, IngestResponse{
				Session: id, Error: "hydrate-failed", Detail: err.Error(),
			})
			return
		}
	}
	fn(sess, tr)
}

func verdictsJSON(tr *core.Tracker) []VerdictJSON {
	vs := tr.Verdicts()
	out := make([]VerdictJSON, len(vs))
	for i, v := range vs {
		out[i] = VerdictJSON{Tag: v.Tag, PID: v.PID, Seq: v.Seq, Tainted: v.Tainted}
	}
	return out
}

func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(sess *session, tr *core.Tracker) {
		writeJSON(w, http.StatusOK, VerdictsResponse{
			Session:  sess.id,
			Acked:    sess.acked.Load(),
			Verdicts: verdictsJSON(tr),
		})
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(sess *session, tr *core.Tracker) {
		state := "live"
		if sess.spilled.Load() {
			state = "spilled"
		}
		writeJSON(w, http.StatusOK, StatsResponse{
			Session:  sess.id,
			State:    state,
			Acked:    sess.acked.Load(),
			Verdicts: len(tr.Verdicts()),
			Stats:    tr.Stats(),
		})
	})
}

// handleFinalize answers with the session's final verdicts and releases
// every resource it held — memory, LRU slot, spill file. Finalize blocks
// behind an in-flight ingest rather than racing it.
func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.lookup(id)
	if sess == nil {
		writeJSON(w, http.StatusNotFound, IngestResponse{Session: id, Error: "unknown-session"})
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	tr := sess.tr
	if tr == nil && !sess.spilled.Load() {
		writeJSON(w, http.StatusNotFound, IngestResponse{Session: id, Error: "unknown-session"})
		return
	}
	if sess.spilled.Load() {
		var err error
		tr, err = s.peekSnapshot(sess)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, IngestResponse{
				Session: id, Error: "hydrate-failed", Detail: err.Error(),
			})
			return
		}
	}
	resp := VerdictsResponse{
		Session:  sess.id,
		Acked:    sess.acked.Load(),
		Verdicts: verdictsJSON(tr),
	}
	s.remove(sess)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := ListResponse{Live: s.lru.Len()}
	resp.Spilled = len(s.sessions) - resp.Live
	resp.Sessions = make([]SessionSummary, 0, len(s.sessions))
	for id, sess := range s.sessions {
		state := "live"
		if sess.spilled.Load() {
			state = "spilled"
		}
		resp.Sessions = append(resp.Sessions, SessionSummary{
			Session: id, State: state, Acked: sess.acked.Load(),
		})
	}
	s.mu.Unlock()
	sortSummaries(resp.Sessions)
	writeJSON(w, http.StatusOK, resp)
}
