package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/trace"
)

var testCfg = core.Config{NI: 13, NT: 3, Untaint: true}

// testHarness is shared across tests: trace recording is the expensive
// part and the recorder is read-only once cached.
var (
	harnessOnce sync.Once
	harness     *eval.Harness
)

func sharedHarness(t *testing.T) *eval.Harness {
	t.Helper()
	harnessOnce.Do(func() {
		h := eval.NewHarness(10)
		for _, a := range h.Apps() {
			if _, err := h.AppTrace(a); err != nil {
				panic(err)
			}
		}
		harness = h
	})
	return harness
}

type testService struct {
	srv *server.Server
	ts  *httptest.Server
	reg *metrics.Registry
	dir string
}

func newTestService(t *testing.T, mutate func(*server.Config)) *testService {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg := server.Config{
		Tracker:    testCfg,
		SpillDir:   t.TempDir(),
		Registry:   reg,
		RetryAfter: time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &testService{srv: srv, ts: ts, reg: reg, dir: cfg.SpillDir}
}

func (s *testService) base(id string) string { return s.ts.URL + "/v1/sessions/" + id }

// post sends events[start:end] as one request and returns the decoded
// response and status, retrying on 429.
func (s *testService) post(t *testing.T, id string, events []cpu.Event, start, end int) (server.IngestResponse, int) {
	t.Helper()
	body := eval.EncodeTrace(events[start:end])
	return s.postRaw(t, id, body, uint64(start))
}

func (s *testService) postRaw(t *testing.T, id string, body []byte, offset uint64) (server.IngestResponse, int) {
	t.Helper()
	return s.postBody(t, id, body, offset, false)
}

// postBody sends body as one request starting at event offset; chunked
// hides its length, so it travels with chunked transfer encoding and the
// server sees no Content-Length.
func (s *testService) postBody(t *testing.T, id string, body []byte, offset uint64, chunked bool) (server.IngestResponse, int) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = struct{ io.Reader }{rd}
		}
		req, err := http.NewRequest(http.MethodPost, s.base(id)+"/events", rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("PIFT-Offset", strconv.FormatUint(offset, 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var ir server.IngestResponse
		derr := json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 500 {
			time.Sleep(time.Millisecond)
			continue
		}
		if derr != nil {
			t.Fatalf("POST %s: status %d: decode: %v", id, resp.StatusCode, derr)
		}
		return ir, resp.StatusCode
	}
}

func (s *testService) verdicts(t *testing.T, id string) []core.SinkVerdict {
	t.Helper()
	for attempt := 0; ; attempt++ {
		resp, err := http.Get(s.base(id) + "/verdicts")
		if err != nil {
			t.Fatal(err)
		}
		var vr server.VerdictsResponse
		derr := json.NewDecoder(resp.Body).Decode(&vr)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 500 {
			time.Sleep(time.Millisecond)
			continue
		}
		if derr != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET verdicts %s: status %d err %v", id, resp.StatusCode, derr)
		}
		out := make([]core.SinkVerdict, len(vr.Verdicts))
		for i, v := range vr.Verdicts {
			out[i] = core.SinkVerdict{Tag: v.Tag, PID: v.PID, Seq: v.Seq, Tainted: v.Tainted}
		}
		return out
	}
}

func (s *testService) stats(t *testing.T, id string) server.StatsResponse {
	t.Helper()
	for attempt := 0; ; attempt++ {
		resp, err := http.Get(s.base(id) + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var sr server.StatsResponse
		derr := json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 500 {
			time.Sleep(time.Millisecond)
			continue
		}
		if derr != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET stats %s: status %d err %v", id, resp.StatusCode, derr)
		}
		return sr
	}
}

func requireParity(t *testing.T, got, want []core.SinkVerdict, label string) {
	t.Helper()
	if !eval.VerdictsEqual(got, want) {
		t.Fatalf("%s: verdict mismatch: server %v vs one-shot %v", label, got, want)
	}
}

// TestIngestParity is the basic contract: one tenant streams a whole
// trace; the session's verdicts equal a one-shot inline replay.
func TestIngestParity(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, nil)
	events, err := h.TenantEvents(0)
	if err != nil {
		t.Fatal(err)
	}
	ir, code := s.post(t, "alpha", events, 0, len(events))
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, ir)
	}
	if ir.Acked != uint64(len(events)) || ir.Ingested != uint64(len(events)) {
		t.Fatalf("acked %d ingested %d, want %d", ir.Acked, ir.Ingested, len(events))
	}
	requireParity(t, s.verdicts(t, "alpha"), eval.OneShotVerdicts(events, testCfg), "whole-stream")

	st := s.stats(t, "alpha")
	if st.State != "live" || st.Acked != uint64(len(events)) {
		t.Fatalf("stats: %+v", st)
	}
	if st.Stats.Loads == 0 || st.Stats.SinkChecks == 0 {
		t.Fatalf("stats counters empty: %+v", st.Stats)
	}
}

// TestChunkedResume splits one stream across requests with PIFT-Offset,
// re-sends an already-acknowledged chunk (dedup), and probes the gap 409.
func TestChunkedResume(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, nil)
	events, err := h.TenantEvents(1)
	if err != nil {
		t.Fatal(err)
	}
	third := len(events) / 3
	if third == 0 {
		t.Fatalf("trace too small: %d events", len(events))
	}

	// A gap is refused before any state changes.
	if _, code := s.post(t, "beta", events, third, 2*third); code != http.StatusConflict {
		t.Fatalf("gap: status %d, want 409", code)
	}
	if ir, code := s.post(t, "beta", events, 0, third); code != http.StatusOK || ir.Acked != uint64(third) {
		t.Fatalf("chunk 1: status %d acked %d", code, ir.Acked)
	}
	// Retransmission of an acknowledged chunk is a no-op.
	if ir, code := s.post(t, "beta", events, 0, third); code != http.StatusOK || ir.Ingested != 0 || ir.Acked != uint64(third) {
		t.Fatalf("duplicate chunk: status %d %+v", code, ir)
	}
	// Overlapping resend: half the chunk is already applied, half is new.
	if ir, code := s.post(t, "beta", events, third/2, 2*third); code != http.StatusOK || ir.Acked != uint64(2*third) {
		t.Fatalf("overlap chunk: status %d %+v", code, ir)
	}
	if ir, code := s.post(t, "beta", events, 2*third, len(events)); code != http.StatusOK || ir.Acked != uint64(len(events)) {
		t.Fatalf("chunk 3: status %d %+v", code, ir)
	}
	requireParity(t, s.verdicts(t, "beta"), eval.OneShotVerdicts(events, testCfg), "chunked")
}

// TestErrorTaxonomy maps each trace-decode failure class onto its HTTP
// status — and none of them onto a 5xx.
func TestErrorTaxonomy(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, nil)
	events, err := h.TenantEvents(3)
	if err != nil {
		t.Fatal(err)
	}
	full := eval.EncodeTrace(events)

	badMagic := append([]byte("NOTTRACE"), full[8:]...)
	if ir, code := s.postRaw(t, "err-magic", badMagic, 0); code != http.StatusBadRequest || ir.Error != "not-a-trace" {
		t.Fatalf("bad magic: status %d %+v", code, ir)
	}
	corrupt := bytes.Clone(full)
	corrupt[trace.HeaderSize] ^= 0x80 // first event's kind byte
	if ir, code := s.postRaw(t, "err-corrupt", corrupt, 0); code != http.StatusUnprocessableEntity || ir.Error != "corrupt-record" {
		t.Fatalf("corrupt: status %d %+v", code, ir)
	}
	huge := bytes.Clone(full[:trace.HeaderSize])
	for i := 8; i < 16; i++ {
		huge[i] = 0xff
	}
	if ir, code := s.postRaw(t, "err-huge", huge, 0); code != http.StatusRequestEntityTooLarge || ir.Error != "too-large" {
		t.Fatalf("too large: status %d %+v", code, ir)
	}
	if ir, code := s.postRaw(t, "err-empty", full[:4], 0); code != http.StatusBadRequest || ir.Error != "truncated" {
		t.Fatalf("truncated header: status %d %+v", code, ir)
	}
}

// TestEvictionRehydration runs many tenants under a budget that holds
// only a handful of live trackers, interleaving chunks so sessions
// dehydrate and rehydrate repeatedly mid-stream. Every tenant must end
// byte-identical to its one-shot replay, and the spill machinery must
// actually have engaged.
func TestEvictionRehydration(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, func(c *server.Config) {
		c.MemoryBudget = 8 << 10 // a few live sessions at most
	})
	const tenants = 12
	const chunks = 3
	all := make([][]cpu.Event, tenants)
	for i := range all {
		events, err := h.TenantEvents(i)
		if err != nil {
			t.Fatal(err)
		}
		all[i] = events
	}
	// Interleave chunk c of every tenant before chunk c+1 of any, so each
	// tenant's session goes cold (and likely spills) between its chunks.
	for c := 0; c < chunks; c++ {
		for i, events := range all {
			per := (len(events) + chunks - 1) / chunks
			start := c * per
			end := start + per
			if start >= len(events) {
				continue
			}
			if end > len(events) {
				end = len(events)
			}
			if ir, code := s.post(t, eval.TenantID(i), events, start, end); code != http.StatusOK {
				t.Fatalf("tenant %d chunk %d: status %d %+v", i, c, code, ir)
			}
		}
	}
	snap := s.reg.Snapshot().Counters
	if snap["pift_server_hydrates_total"] == 0 {
		t.Fatalf("budget never forced a rehydration: %v", snap)
	}
	if snap["pift_server_sessions_evicted_total"] == 0 {
		t.Fatalf("budget never evicted: %v", snap)
	}
	for i, events := range all {
		requireParity(t, s.verdicts(t, eval.TenantID(i)),
			eval.OneShotVerdicts(events, testCfg), fmt.Sprintf("tenant %d", i))
	}
	// A spilled session's stats are served from its snapshot without
	// hydrating it.
	live, spilled := s.srv.SessionCount()
	if spilled == 0 {
		t.Fatalf("expected spilled sessions, have live=%d spilled=%d", live, spilled)
	}
}

// TestRestartRecovery dehydrates sessions, builds a brand-new Server over
// the same spill directory, and expects the tenants to still be there —
// queryable and resumable at their acknowledged offsets.
func TestRestartRecovery(t *testing.T) {
	h := sharedHarness(t)
	dir := t.TempDir()
	s := newTestService(t, func(c *server.Config) {
		c.SpillDir = dir
		c.MemoryBudget = 1 // evict everything immediately
	})
	events, err := h.TenantEvents(4)
	if err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	if ir, code := s.post(t, "delta", events, 0, half); code != http.StatusOK {
		t.Fatalf("first half: status %d %+v", code, ir)
	}

	// "Restart": a fresh server over the same spill directory.
	s2 := newTestService(t, func(c *server.Config) {
		c.SpillDir = dir
		c.MemoryBudget = 1
	})
	st := s2.stats(t, "delta")
	if st.State != "spilled" || st.Acked != uint64(half) {
		t.Fatalf("recovered stats: %+v", st)
	}
	if ir, code := s2.post(t, "delta", events, half, len(events)); code != http.StatusOK || ir.Acked != uint64(len(events)) {
		t.Fatalf("resume after restart: status %d %+v", code, ir)
	}
	requireParity(t, s2.verdicts(t, "delta"), eval.OneShotVerdicts(events, testCfg), "restart")
}

// TestRestartQuarantinesCorruptSpill: a restart over a spill directory
// that holds an empty and a wrongly-magicked *.sess file beside a good one
// starts anyway. The good tenant serves its verdicts, and the two bad
// files are set aside as *.corrupt and counted.
func TestRestartQuarantinesCorruptSpill(t *testing.T) {
	h := sharedHarness(t)
	dir := t.TempDir()
	s := newTestService(t, func(c *server.Config) {
		c.SpillDir = dir
		c.MemoryBudget = 1 // evict everything immediately
	})
	events, err := h.TenantEvents(4)
	if err != nil {
		t.Fatal(err)
	}
	if ir, code := s.post(t, "delta", events, 0, len(events)); code != http.StatusOK {
		t.Fatalf("ingest: status %d %+v", code, ir)
	}
	bad := map[string][]byte{"empty.sess": nil, "magic.sess": []byte("NOTPIFT1 and then some bytes")}
	for name, b := range bad {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newTestService(t, func(c *server.Config) {
		c.SpillDir = dir
		c.MemoryBudget = 1
	})
	requireParity(t, s2.verdicts(t, "delta"), eval.OneShotVerdicts(events, testCfg), "restart")
	if got := s2.reg.Counter("pift_server_spill_quarantined_total", "").Value(); got != 2 {
		t.Fatalf("pift_server_spill_quarantined_total = %d, want 2", got)
	}
	for name, b := range bad {
		got, err := os.ReadFile(filepath.Join(dir, name+".corrupt"))
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("%s.corrupt: %q, %v; want the original bytes", name, got, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s still in place: %v", name, err)
		}
	}
}

// TestFinalize: DELETE returns the final verdicts and releases everything;
// the session is gone afterwards.
func TestFinalize(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, nil)
	events, err := h.TenantEvents(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := s.post(t, "omega", events, 0, len(events)); code != http.StatusOK {
		t.Fatalf("ingest failed: %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, s.base("omega"), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var vr server.VerdictsResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d err %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	want := eval.OneShotVerdicts(events, testCfg)
	if len(vr.Verdicts) != len(want) {
		t.Fatalf("final verdicts: %d, want %d", len(vr.Verdicts), len(want))
	}
	resp2, err := http.Get(s.base("omega") + "/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("after DELETE: status %d, want 404", resp2.StatusCode)
	}
}

// TestAdmissionControl exercises both 429 classes: the global stream cap
// and per-tenant serialization.
func TestAdmissionControl(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, func(c *server.Config) { c.MaxStreams = 1 })
	events, err := h.TenantEvents(6)
	if err != nil {
		t.Fatal(err)
	}
	body := eval.EncodeTrace(events)

	// Occupy the only stream slot with a request whose body stalls.
	gate := make(chan struct{})
	release := make(chan struct{})
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest(http.MethodPost, s.base("slow")+"/events", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	go func() {
		pw.Write(body[:trace.HeaderSize+trace.EventSize])
		close(gate)
		<-release
		pw.Write(body[trace.HeaderSize+trace.EventSize:])
		pw.Close()
	}()
	<-gate
	// Give the server a moment to enter the ingest loop and block on the
	// stalled body.
	var sawBusy bool
	for i := 0; i < 200; i++ {
		resp, err := http.Post(s.base("other")+"/events", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		retry := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if retry == "" {
				t.Fatal("429 without Retry-After")
			}
			sawBusy = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if !sawBusy {
		t.Fatal("global stream cap never produced a 429")
	}
	if s.reg.Snapshot().Counters["pift_server_streams_rejected_total"] == 0 {
		t.Fatal("streams_rejected_total not incremented")
	}
}

// TestConcurrentLifecycle is the race test: many tenants ingest chunked
// streams concurrently under a budget that forces continuous
// evict/rehydrate churn, with queries mixed in. Run with -race.
func TestConcurrentLifecycle(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, func(c *server.Config) {
		c.MemoryBudget = 8 << 10
		c.MaxStreams = 8
	})
	const tenants = 16
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			events, err := h.TenantEvents(i)
			if err != nil {
				errs <- err
				return
			}
			id := eval.TenantID(i)
			const chunks = 4
			per := (len(events) + chunks - 1) / chunks
			for start := 0; start < len(events); start += per {
				end := start + per
				if end > len(events) {
					end = len(events)
				}
				if ir, code := s.post(t, id, events, start, end); code != http.StatusOK {
					errs <- fmt.Errorf("tenant %d: status %d %+v", i, code, ir)
					return
				}
				// Interleave a query to race the peek path against other
				// tenants' evictions.
				_ = s.stats(t, id)
			}
			got := s.verdicts(t, id)
			if !eval.VerdictsEqual(got, eval.OneShotVerdicts(events, testCfg)) {
				errs <- fmt.Errorf("tenant %d: verdict mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
