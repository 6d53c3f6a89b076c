package eval

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// Serving workload helpers: the taint service's tests and load drivers
// need many distinct tenants whose ground truth is known exactly. Each
// synthetic tenant replays one DroidBench-like app (chosen round-robin)
// with its PIDs offset by the tenant index, so tenant i looks like a
// distinct device running a distinct process — but its verdicts are
// computable by an inline one-shot tracker, which is what "the server
// must be byte-identical to the CLI" is measured against.

// TenantID names synthetic tenant i. Fixed-width so session listings
// sort in tenant order.
func TenantID(i int) string { return fmt.Sprintf("tenant-%05d", i) }

// TenantEvents returns tenant i's event stream: the suite app chosen
// round-robin by index, re-PIDed by the tenant index. The PID offset is
// uniform across the trace, so window and taint-store behavior — and
// therefore every verdict's Tag/Seq/Tainted — match the original app
// exactly.
func (h *Harness) TenantEvents(i int) ([]cpu.Event, error) {
	apps := h.Apps()
	rec, err := h.AppTrace(apps[i%len(apps)])
	if err != nil {
		return nil, err
	}
	out := make([]cpu.Event, len(rec.Events))
	for j, ev := range rec.Events {
		ev.PID += uint32(i)
		out[j] = ev
	}
	return out, nil
}

// OneShotVerdicts replays an event stream through a fresh inline tracker
// — the ground truth every serving-path result must reproduce.
func OneShotVerdicts(events []cpu.Event, cfg core.Config) []core.SinkVerdict {
	tr := core.NewTracker(cfg, nil)
	for _, ev := range events {
		tr.Event(ev)
	}
	return tr.Verdicts()
}

// EncodeTrace serializes events as one self-contained PIFTTRC1 stream —
// the body of one ingest request. A sub-slice encodes the resumed tail of
// a stream: same format, sent with the PIFT-Offset of its first event.
func EncodeTrace(events []cpu.Event) []byte {
	return EncodeTraceFormat(events, trace.FormatV1)
}

// EncodeTraceFormat is EncodeTrace with the wire format chosen by the
// caller: PIFTTRC1 fixed records or PIFTTRC3 compressed blocks. Both are
// self-contained and both serve as a resumed tail — v2 re-blocks the
// sub-slice from event zero, which the server accepts because offsets
// travel in the PIFT-Offset header, not the payload.
func EncodeTraceFormat(events []cpu.Event, f trace.Format) []byte {
	var buf bytes.Buffer
	rec := &trace.Recorder{Events: events}
	if _, err := rec.WriteToFormat(&buf, f); err != nil {
		// bytes.Buffer writes cannot fail; a codec error here is a bug.
		panic(err)
	}
	return buf.Bytes()
}

// VerdictsEqual reports whether two verdict slices are identical —
// length, order, and every field.
func VerdictsEqual(a, b []core.SinkVerdict) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
