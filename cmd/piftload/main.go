// Command piftload drives a running piftrun -serve instance with
// synthetic tenants and verifies the service end to end: every tenant's
// trace is streamed in (optionally split across several resumable
// requests), the session's verdicts are fetched back, and each must be
// identical to what a one-shot inline tracker computes for the same
// stream. It is both the load generator for soak runs and the assertion
// harness for the CI integration job.
//
// Usage:
//
//	piftload -addr http://localhost:8080 [-sessions 100] [-chunks 4]
//	         [-concurrency 16] [-ni 13] [-nt 3] [-untaint=true]
//	         [-finalize] [-scale 20] [-health-retries 30]
//	         [-hot N] [-hot-events M] [-wire-format v1|v2]
//
// The tracker flags must match the ones the server was started with —
// parity is only meaningful against the same configuration. Exit status
// is non-zero on any mismatch, protocol error, or failed health check.
//
// The initial /healthz probe retries with backoff for up to
// -health-retries attempts, so piftload can be started concurrently with
// the server it drives (CI does exactly that) without a sleep-and-hope
// shim in front of it.
//
// -wire-format chooses the trace serialization every request body uses:
// the fixed-record PIFTTRC1 (default, the conservative baseline) or the
// block-compressed PIFTTRC3. Verdicts must be identical either way — CI
// runs both and additionally asserts the v2 pass moved fewer wire bytes.
//
// -hot N adds N "hot" tenants, each streaming a -hot-events-sized
// multi-process synthetic corpus in one request — big enough to cross
// the server's parallel-ingest threshold. Their verdicts are verified
// against the inline replay in canonical (PID, Seq, Tag) order, which is
// order-insensitive and therefore holds on both the sequential and the
// sharded ingest path.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "base URL of the piftrun -serve instance")
	sessions := flag.Int("sessions", 100, "number of synthetic tenants to drive")
	chunks := flag.Int("chunks", 4, "requests to split each tenant's stream across (resume protocol)")
	concurrency := flag.Int("concurrency", 16, "tenants driven in parallel")
	ni := flag.Uint64("ni", 13, "tainting window size NI (must match the server)")
	nt := flag.Int("nt", 3, "max propagations per window NT (must match the server)")
	untaint := flag.Bool("untaint", true, "untainting rule (must match the server)")
	finalize := flag.Bool("finalize", false, "DELETE each session after verifying it")
	scale := flag.Int("scale", 20, "harness scale for trace generation")
	healthRetries := flag.Int("health-retries", 30, "attempts for the initial /healthz probe (backoff between attempts)")
	hot := flag.Int("hot", 0, "additional hot tenants, each streaming one -hot-events multi-process corpus")
	hotEvents := flag.Int("hot-events", 1<<17, "events per hot tenant's synthetic corpus")
	wireFormat := flag.String("wire-format", "v1", "trace wire format for request bodies: v1 (PIFTTRC1) or v2 (PIFTTRC3)")
	flag.Parse()
	if *chunks < 1 {
		*chunks = 1
	}
	format, err := trace.ParseFormat(*wireFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piftload:", err)
		os.Exit(2)
	}

	client := &http.Client{Timeout: 60 * time.Second}
	if err := checkHealth(client, *addr, *healthRetries); err != nil {
		fmt.Fprintln(os.Stderr, "piftload: healthz:", err)
		os.Exit(1)
	}

	cfg := core.Config{NI: *ni, NT: *nt, Untaint: *untaint}
	h := eval.NewHarness(*scale)
	// Warm the trace cache serially; after this, TenantEvents only reads.
	for _, a := range h.Apps() {
		if _, err := h.AppTrace(a); err != nil {
			fmt.Fprintln(os.Stderr, "piftload:", err)
			os.Exit(1)
		}
	}

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		events   atomic.Int64
		sem      = make(chan struct{}, *concurrency)
	)
	start := time.Now()
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			n, err := driveTenant(client, *addr, h, cfg, i, *chunks, *finalize, format)
			events.Add(int64(n))
			if err != nil {
				failures.Add(1)
				fmt.Fprintf(os.Stderr, "piftload: %s: %v\n", eval.TenantID(i), err)
			}
		}(i)
	}
	for i := 0; i < *hot; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			n, err := driveHotTenant(client, *addr, cfg, i, *hotEvents, *finalize, format)
			events.Add(int64(n))
			if err != nil {
				failures.Add(1)
				fmt.Fprintf(os.Stderr, "piftload: hot-%05d: %v\n", i, err)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("piftload: %d sessions (%d hot), %d events in %v (%.0f events/s), %d failure(s)\n",
		*sessions+*hot, *hot, events.Load(), elapsed.Round(time.Millisecond),
		float64(events.Load())/elapsed.Seconds(), failures.Load())
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// checkHealth probes /healthz with bounded retry and linear backoff
// (capped at one second per attempt) so a server still binding its
// listener counts as "not yet", not "failed".
func checkHealth(client *http.Client, addr string, retries int) error {
	if retries < 1 {
		retries = 1
	}
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		if attempt > 0 {
			d := time.Duration(100*attempt) * time.Millisecond
			if d > time.Second {
				d = time.Second
			}
			time.Sleep(d)
		}
		resp, err := client.Get(addr + "/healthz")
		if err != nil {
			lastErr = err
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("status %d", resp.StatusCode)
	}
	return fmt.Errorf("no healthy response after %d attempts: %w", retries, lastErr)
}

// driveHotTenant streams one synthetic multi-process corpus as a single
// request — the shape that crosses the server's parallel-ingest
// threshold — and verifies the session's verdicts canonically.
func driveHotTenant(client *http.Client, addr string, cfg core.Config, i, nevents int, finalize bool, f trace.Format) (int, error) {
	rec := tracegen.Generate(tracegen.Spec{Seed: int64(1000 + i), Events: nevents})
	id := fmt.Sprintf("hot-%05d", i)
	base := addr + "/v1/sessions/" + id
	if err := postChunk(client, base, rec.Events, 0, len(rec.Events), f); err != nil {
		return 0, err
	}
	got, err := fetchVerdicts(client, base)
	if err != nil {
		return 0, err
	}
	want := eval.OneShotVerdicts(rec.Events, cfg)
	core.SortVerdicts(want)
	core.SortVerdicts(got)
	if !eval.VerdictsEqual(got, want) {
		return 0, fmt.Errorf("verdict mismatch: server %d vs one-shot %d", len(got), len(want))
	}
	if finalize {
		req, _ := http.NewRequest(http.MethodDelete, base, nil)
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("DELETE: status %d", resp.StatusCode)
		}
	}
	return len(rec.Events), nil
}

// driveTenant streams tenant i's trace in `chunks` resumable requests,
// fetches the session's verdicts, and compares them against the one-shot
// inline tracker. Returns the number of events streamed.
func driveTenant(client *http.Client, addr string, h *eval.Harness, cfg core.Config, i, chunks int, finalize bool, f trace.Format) (int, error) {
	events, err := h.TenantEvents(i)
	if err != nil {
		return 0, err
	}
	id := eval.TenantID(i)
	base := addr + "/v1/sessions/" + id

	per := (len(events) + chunks - 1) / chunks
	for start := 0; start < len(events); start += per {
		end := start + per
		if end > len(events) {
			end = len(events)
		}
		if err := postChunk(client, base, events, start, end, f); err != nil {
			return 0, err
		}
	}

	got, err := fetchVerdicts(client, base)
	if err != nil {
		return 0, err
	}
	want := eval.OneShotVerdicts(events, cfg)
	if !eval.VerdictsEqual(got, want) {
		return 0, fmt.Errorf("verdict mismatch: server %d vs one-shot %d", len(got), len(want))
	}
	if finalize {
		req, _ := http.NewRequest(http.MethodDelete, base, nil)
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("DELETE: status %d", resp.StatusCode)
		}
	}
	return len(events), nil
}

// postChunk sends events[start:end] as a self-contained trace stream with
// the resume offset header, retrying on 429 backpressure and verifying
// the acknowledged offset reaches end.
func postChunk(client *http.Client, base string, events []cpu.Event, start, end int, f trace.Format) error {
	body := eval.EncodeTraceFormat(events[start:end], f)
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, base+"/events", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("PIFT-Offset", strconv.Itoa(start))
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		var ir server.IngestResponse
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if attempt > 100 {
				return fmt.Errorf("still 429 (%s) after %d attempts", ir.Error, attempt)
			}
			d := time.Duration(50+10*attempt) * time.Millisecond
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if s, err := strconv.Atoi(ra); err == nil && s > 0 {
					d = time.Duration(s) * time.Second
				}
			}
			time.Sleep(d)
			continue
		}
		if err != nil {
			return fmt.Errorf("POST events: decoding status %d: %w", resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST events: status %d: %s: %s", resp.StatusCode, ir.Error, ir.Detail)
		}
		if ir.Acked != uint64(end) {
			return fmt.Errorf("POST events: acked %d, want %d", ir.Acked, end)
		}
		return nil
	}
}

func fetchVerdicts(client *http.Client, base string) ([]core.SinkVerdict, error) {
	for attempt := 0; ; attempt++ {
		resp, err := client.Get(base + "/verdicts")
		if err != nil {
			return nil, err
		}
		var vr server.VerdictsResponse
		err = json.NewDecoder(resp.Body).Decode(&vr)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt <= 100 {
			time.Sleep(time.Duration(50+10*attempt) * time.Millisecond)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("GET verdicts: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET verdicts: status %d", resp.StatusCode)
		}
		out := make([]core.SinkVerdict, len(vr.Verdicts))
		for i, v := range vr.Verdicts {
			out[i] = core.SinkVerdict{Tag: v.Tag, PID: v.PID, Seq: v.Seq, Tainted: v.Tainted}
		}
		return out, nil
	}
}
