package server_test

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// TestIngestRoute is the one ingest route's contract, over workers
// {1, 4} × body {Content-Length, chunked} × format {v1, v2} × {whole,
// cut}. A whole body acks every event. A v1 body cut mid-record acks
// exactly the events before the cut; a v2 body cut mid-block acks the
// torn block's first event. Either way the reply says how many events it
// applied, and after a resend from the ack the session's verdicts and
// stats equal the one-shot replay's.
func TestIngestRoute(t *testing.T) {
	const n = 6*trace.DefaultBlockEvents + 500
	events := tracegen.Generate(tracegen.Spec{Seed: 41, Events: n, PIDs: 8}).Events
	oneShot := eval.OneShotVerdicts(events, testCfg)
	if len(oneShot) == 0 {
		t.Fatal("corpus records no verdicts; the parity checks would prove nothing")
	}
	seq := core.NewTracker(testCfg, nil)
	for _, ev := range events {
		seq.Event(ev)
	}

	for _, workers := range []int{1, 4} {
		for _, chunked := range []bool{false, true} {
			for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
				for _, torn := range []bool{false, true} {
					framing, shape := "length", "whole"
					if chunked {
						framing = "chunked"
					}
					if torn {
						shape = "cut"
					}
					t.Run(fmt.Sprintf("w%d/%s/%s/%s", workers, framing, f, shape), func(t *testing.T) {
						body := eval.EncodeTraceFormat(events, f)
						wantAck := uint64(n)
						if torn {
							body, wantAck = cutBody(t, body, f)
						}
						s := newTestService(t, func(c *server.Config) {
							c.IngestWorkers = workers
							c.WorkerBudget = 8
							c.ParallelThreshold = 1
						})
						ir, code := s.postBody(t, "route", body, 0, chunked)
						wantStatus, wantErr := http.StatusOK, ""
						if torn {
							wantStatus, wantErr = http.StatusBadRequest, "truncated"
						}
						if code != wantStatus || ir.Error != wantErr || ir.Acked != wantAck || ir.Ingested != wantAck {
							t.Fatalf("first post: status %d %+v, want %d %q acked=ingested=%d", code, ir, wantStatus, wantErr, wantAck)
						}
						if torn {
							rest := eval.EncodeTraceFormat(events[wantAck:], f)
							ir, code = s.postBody(t, "route", rest, wantAck, chunked)
							if code != http.StatusOK || ir.Error != "" || ir.Acked != n || ir.Ingested != n-wantAck {
								t.Fatalf("resend from %d: status %d %+v", wantAck, code, ir)
							}
						}
						if par := counterOf(s, "pift_server_parallel_ingests_total"); (workers > 1) != (par > 0) {
							t.Fatalf("%d parallel ingests at %d workers", par, workers)
						}

						want := append([]core.SinkVerdict(nil), oneShot...)
						wantStats, st := seq.Stats(), s.stats(t, "route").Stats
						if workers > 1 {
							// Shards merge verdicts in canonical order, and on a
							// multi-PID stream the watermarks are per-shard maxima.
							core.SortVerdicts(want)
							wantStats.MaxBytes, wantStats.MaxRanges = 0, 0
							st.MaxBytes, st.MaxRanges = 0, 0
						}
						requireParity(t, s.verdicts(t, "route"), want, "route")
						if st != wantStats {
							t.Fatalf("stats diverge:\nserver %+v\nseq    %+v", st, wantStats)
						}
					})
				}
			}
		}
	}
}

// cutBody tears a whole trace body mid-record (v1) or mid-block (v2) and
// returns the torn body with the ack the server owes it: the events before
// the cut for v1, the torn block's first event for v2.
func cutBody(t *testing.T, full []byte, f trace.Format) ([]byte, uint64) {
	t.Helper()
	if f == trace.FormatV1 {
		k := (len(full) - trace.HeaderSize) / trace.EventSize / 2
		return full[:trace.HeaderSize+k*trace.EventSize+trace.EventSize/2], uint64(k)
	}
	idx, err := trace.LoadIndex(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Blocks() < 5 {
		t.Fatalf("trace has %d blocks, want ≥5", idx.Blocks())
	}
	b := idx.Block(4)
	return full[:b.Offset+int64(b.Payload)/2], b.First
}

// TestShardFault: a shard that panics mid-request commits nothing. The
// reply is 500 shard-failed, the ack (body and PIFT-Ack-Offset header),
// verdicts and stats are what they were before the request, and a clean
// resend of the same body converges to the one-shot replay.
func TestShardFault(t *testing.T) {
	const n = 3 * trace.DefaultBlockEvents
	events := tracegen.Generate(tracegen.Spec{Seed: 43, Events: n, PIDs: 8}).Events
	s := newTestService(t, parallelCfg)
	var armed atomic.Bool
	var seen atomic.Int64
	s.srv.SetShardObserver(func(worker int, ev cpu.Event) {
		if armed.Load() && worker == 1 && seen.Add(1) == 100 {
			panic("injected shard fault")
		}
	})

	const half = n / 2
	if ir, code := s.post(t, "fault", events, 0, half); code != http.StatusOK || ir.Acked != half {
		t.Fatalf("clean prefix: status %d %+v", code, ir)
	}
	verdicts, stats := s.verdicts(t, "fault"), s.stats(t, "fault")

	armed.Store(true)
	body := eval.EncodeTrace(events[half:])
	req, err := http.NewRequest(http.MethodPost, s.base("fault")+"/events", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("PIFT-Offset", strconv.Itoa(half))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ir server.IngestResponse
	derr := jsonDecode(resp.Body, &ir)
	resp.Body.Close()
	if derr != nil || resp.StatusCode != http.StatusInternalServerError || ir.Error != "shard-failed" {
		t.Fatalf("faulted post: status %d %+v (decode %v), want 500 shard-failed", resp.StatusCode, ir, derr)
	}
	if ack := resp.Header.Get("PIFT-Ack-Offset"); ack != strconv.Itoa(half) || ir.Acked != half || ir.Ingested != 0 {
		t.Fatalf("faulted post: PIFT-Ack-Offset %q, body %+v, want ack %d and nothing ingested", ack, ir, half)
	}
	if seen.Load() < 100 {
		t.Fatal("the injected fault never fired")
	}
	requireParity(t, s.verdicts(t, "fault"), verdicts, "after fault")
	if st := s.stats(t, "fault"); st != stats {
		t.Fatalf("stats moved under a faulted request:\nafter  %+v\nbefore %+v", st, stats)
	}

	armed.Store(false)
	if ir, code := s.post(t, "fault", events, half, n); code != http.StatusOK || ir.Acked != n || ir.Ingested != n-half {
		t.Fatalf("clean resend: status %d %+v", code, ir)
	}
	want := eval.OneShotVerdicts(events, testCfg)
	core.SortVerdicts(want)
	requireParity(t, s.verdicts(t, "fault"), want, "resend after fault")
	if g := s.reg.Snapshot().Gauges["pift_server_ingest_workers_loaned"]; g != 0 {
		t.Fatalf("worker loans leaked: %d", g)
	}
}
