package server_test

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// postV2 sends events[start:end] as one PIFTTRC3 request.
func (s *testService) postV2(t *testing.T, id string, events []cpu.Event, start, end int) (server.IngestResponse, int) {
	t.Helper()
	body := eval.EncodeTraceFormat(events[start:end], trace.FormatV2)
	return s.postRaw(t, id, body, uint64(start))
}

// TestIngestParityV2 is the v2 basic contract on the sequential path:
// whole-stream and chunked uploads of PIFTTRC3 bodies produce verdicts
// identical to the v1 upload and to the one-shot inline replay — and the
// compressed stream crosses the wire in at most a quarter of the bytes,
// observable through pift_server_ingest_bytes_total.
func TestIngestParityV2(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, nil)
	events, err := h.TenantEvents(4)
	if err != nil {
		t.Fatal(err)
	}
	want := eval.OneShotVerdicts(events, testCfg)

	b0 := counterOf(s, "pift_server_ingest_bytes_total")
	if ir, code := s.post(t, "v2-base", events, 0, len(events)); code != http.StatusOK || ir.Acked != uint64(len(events)) {
		t.Fatalf("v1 upload: status %d %+v", code, ir)
	}
	v1Bytes := counterOf(s, "pift_server_ingest_bytes_total") - b0

	if ir, code := s.postV2(t, "v2-whole", events, 0, len(events)); code != http.StatusOK || ir.Acked != uint64(len(events)) {
		t.Fatalf("v2 upload: status %d %+v", code, ir)
	}
	v2Bytes := counterOf(s, "pift_server_ingest_bytes_total") - b0 - v1Bytes
	if v2Bytes == 0 || 4*v2Bytes > v1Bytes {
		t.Fatalf("v2 wire bytes %d vs v1 %d, want ≥4x reduction", v2Bytes, v1Bytes)
	}
	requireParity(t, s.verdicts(t, "v2-whole"), want, "v2-whole-stream")
	requireParity(t, s.verdicts(t, "v2-whole"), s.verdicts(t, "v2-base"), "v2-vs-v1")

	// Chunked resume: each chunk is its own self-contained v2 stream, the
	// offset travels in the header, and dedup of a re-sent chunk holds.
	third := len(events) / 3
	if ir, code := s.postV2(t, "v2-chunk", events, 0, third); code != http.StatusOK || ir.Acked != uint64(third) {
		t.Fatalf("chunk 1: status %d %+v", code, ir)
	}
	if ir, code := s.postV2(t, "v2-chunk", events, 0, third); code != http.StatusOK || ir.Ingested != 0 {
		t.Fatalf("duplicate chunk: status %d %+v", code, ir)
	}
	if ir, code := s.postV2(t, "v2-chunk", events, third/2, 2*third); code != http.StatusOK || ir.Acked != uint64(2*third) {
		t.Fatalf("overlap chunk: status %d %+v", code, ir)
	}
	if ir, code := s.postV2(t, "v2-chunk", events, 2*third, len(events)); code != http.StatusOK || ir.Acked != uint64(len(events)) {
		t.Fatalf("chunk 3: status %d %+v", code, ir)
	}
	requireParity(t, s.verdicts(t, "v2-chunk"), want, "v2-chunked")
}

// TestErrorTaxonomyV2 maps each v2 decode failure class onto its HTTP
// status — 400 for truncation and unknown magic (PIFTTRC2 included), 413
// for size-cap violations, 422 for corruption — and none of them onto a
// 5xx.
func TestErrorTaxonomyV2(t *testing.T) {
	const n = trace.DefaultBlockEvents + 100
	events := tracegen.Generate(tracegen.Spec{Seed: 37, Events: n, PIDs: 3}).Events
	s := newTestService(t, nil)
	full := eval.EncodeTraceFormat(events, trace.FormatV2)

	check := func(name string, body []byte, wantStatus int, wantCode string) {
		t.Helper()
		ir, code := s.postRaw(t, "v2-"+name, body, 0)
		if code >= 500 {
			t.Fatalf("%s: leaked a %d: %+v", name, code, ir)
		}
		if code != wantStatus || ir.Error != wantCode {
			t.Fatalf("%s: status %d error %q, want %d %q", name, code, ir.Error, wantStatus, wantCode)
		}
	}

	// PIFTTRC2, the compressed format PIFTTRC3 replaced, is refused like
	// any unknown magic.
	for _, magic := range []string{"PIFTTRC2", "PIFTTRC4"} {
		check("magic", append([]byte(magic), full[8:]...), http.StatusBadRequest, "not-a-trace")
	}

	tooMany := append([]byte(nil), full...)
	binary.LittleEndian.PutUint64(tooMany[8:], 1<<40)
	check("count", tooMany, http.StatusRequestEntityTooLarge, "too-large")

	// Block 0's clen field blown past the block-size cap.
	hugeBlock := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(hugeBlock[trace.HeaderSize+12:], 1<<23+1)
	check("block-size", hugeBlock, http.StatusRequestEntityTooLarge, "too-large")

	// One payload byte flipped: the CRC refuses the block.
	crc := append([]byte(nil), full...)
	crc[trace.HeaderSize+20+10] ^= 0x80
	check("crc", crc, http.StatusUnprocessableEntity, "corrupt-record")

	check("torn-header", full[:trace.HeaderSize+7], http.StatusBadRequest, "truncated")
	check("torn-payload", full[:len(full)-9], http.StatusBadRequest, "truncated")
}

// TestParallelIngestV2 drives PIFTTRC3 through four-shard ingest: a
// Content-Length ("spooled") body commits with verdicts and stats
// identical to the sequential replay; a torn one acks at the torn block's
// first event and a resend from there converges; a chunked body reaches
// the same final state.
func TestParallelIngestV2(t *testing.T) {
	const n = 6*trace.DefaultBlockEvents + 500
	events := tracegen.Generate(tracegen.Spec{Seed: 41, Events: n, PIDs: 8}).Events
	want := eval.OneShotVerdicts(events, testCfg)
	core.SortVerdicts(want)
	seq := core.NewTracker(testCfg, nil)
	for _, ev := range events {
		seq.Event(ev)
	}
	wantStats := seq.Stats()
	wantStats.MaxBytes, wantStats.MaxRanges = 0, 0

	checkSession := func(t *testing.T, s *testService, id string) {
		t.Helper()
		requireParity(t, s.verdicts(t, id), want, id)
		st := s.stats(t, id)
		st.Stats.MaxBytes, st.Stats.MaxRanges = 0, 0
		if st.Stats != wantStats {
			t.Fatalf("%s: stats diverge:\nserver %+v\nseq    %+v", id, st.Stats, wantStats)
		}
	}

	t.Run("spooled", func(t *testing.T) {
		s := newTestService(t, parallelCfg)
		if ir, code := s.postV2(t, "v2-par", events, 0, len(events)); code != http.StatusOK || ir.Acked != uint64(n) {
			t.Fatalf("status %d %+v", code, ir)
		}
		if counterOf(s, "pift_server_parallel_ingests_total") == 0 {
			t.Fatal("sized v2 request never took the parallel path")
		}
		checkSession(t, s, "v2-par")
	})

	t.Run("spooled-torn", func(t *testing.T) {
		s := newTestService(t, parallelCfg)
		full := eval.EncodeTraceFormat(events, trace.FormatV2)
		idx, err := trace.LoadIndex(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		cut := int(idx.Block(4).Offset) + 13
		ir, code := s.postRaw(t, "v2-par-torn", full[:cut], 0)
		if code != http.StatusBadRequest || ir.Error != "truncated" {
			t.Fatalf("torn: status %d %+v", code, ir)
		}
		if ir.Acked != idx.Block(4).First {
			t.Fatalf("torn: acked %d, want block boundary %d", ir.Acked, idx.Block(4).First)
		}
		if ir2, code := s.postV2(t, "v2-par-torn", events, int(ir.Acked), len(events)); code != http.StatusOK || ir2.Acked != uint64(n) {
			t.Fatalf("resume: status %d %+v", code, ir2)
		}
		checkSession(t, s, "v2-par-torn")
	})

	t.Run("chunked-stream", func(t *testing.T) {
		s := newTestService(t, parallelCfg)
		full := eval.EncodeTraceFormat(events, trace.FormatV2)
		ir, code := s.postBody(t, "v2-par-chunk", full, 0, true)
		if code != http.StatusOK || ir.Acked != uint64(n) {
			t.Fatalf("status %d %+v", code, ir)
		}
		checkSession(t, s, "v2-par-chunk")
	})
}
