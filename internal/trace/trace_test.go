// Package trace_test checks the per-transaction trace view of the one
// observation ring in internal/events: a transaction's trace is the
// events carrying its trace ID, selected with events.Filter.Trace. The
// directory holds tests only; there is no trace package to import.
package trace_test

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"repchain/internal/events"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var l *events.Log
	if seq := l.Emit(events.TypeTxSigned, "deadbeef", 1, "provider/0"); seq != 0 {
		t.Fatalf("nil Emit seq = %d, want 0", seq)
	}
	l.EnableWallClock()
	if l.Dropped() != 0 || l.Events() != nil || l.Select(events.Filter{Trace: "deadbeef"}) != nil {
		t.Fatal("nil ring should be inert")
	}
	if events.NewLog(0) != nil || events.NewLog(-1) != nil {
		t.Fatal("non-positive capacity should yield a nil ring")
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf, events.Filter{Trace: "deadbeef"}); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v out=%q", err, buf.String())
	}
}

func TestRecorderSequencesAndOrders(t *testing.T) {
	l := events.NewLog(8)
	l.Emit(events.TypeTxSigned, "aaaa", 1, "provider/0")
	l.Emit(events.TypeTxCommitted, "aaaa", 1, "governor/0")
	evs := l.Select(events.Filter{Trace: "aaaa"})
	if len(evs) != 2 {
		t.Fatalf("Len = %d, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("Seq = %d,%d, want 1,2", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Type != events.TypeTxSigned || evs[1].Type != events.TypeTxCommitted {
		t.Fatalf("trace out of order: %+v", evs)
	}
	if evs[0].Wall != 0 || evs[1].Wall != 0 {
		t.Fatal("wall clock must stay 0 unless EnableWallClock was called")
	}
}

func TestRecorderRingEvicts(t *testing.T) {
	l := events.NewLog(3)
	for i := 0; i < 5; i++ {
		l.Emit(events.TypeTxSigned, "t", uint64(i), "provider/0")
	}
	if l.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", l.Dropped())
	}
	evs := l.Select(events.Filter{Trace: "t"})
	if len(evs) != 3 || evs[0].Round != 2 || evs[2].Round != 4 {
		t.Fatalf("ring kept wrong events: %+v", evs)
	}
}

func TestByTracePrefix(t *testing.T) {
	l := events.NewLog(8)
	full := "0123456789abcdef0123456789abcdef"
	l.Emit(events.TypeTxSigned, full, 1, "provider/0")
	l.Emit(events.TypeLeaderElected, "", 1, "governor/0") // round-scoped, no trace
	l.Emit(events.TypeTxSigned, "ffff56789abcdef0", 1, "provider/1")

	if got := l.Select(events.Filter{Trace: full}); len(got) != 1 {
		t.Fatalf("exact match found %d events", len(got))
	}
	if got := l.Select(events.Filter{Trace: full[:8]}); len(got) != 1 || got[0].Trace != full {
		t.Fatalf("8-char prefix found %v", got)
	}
	// Short prefixes are too ambiguous to match.
	if got := l.Select(events.Filter{Trace: full[:4]}); got != nil {
		t.Fatalf("4-char prefix should not match, found %v", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	l := events.NewLog(8)
	l.Emit(events.TypeTxSigned, "aaaabbbb", 1, "provider/0", slog.String("kind", "orders"))
	l.Emit(events.TypeTxCommitted, "ccccdddd", 1, "governor/0")
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf, events.Filter{Trace: "aaaabbbb"}); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	if strings.Count(out, "\n") != 0 {
		t.Fatalf("want exactly one line, got:\n%s", out)
	}
	for _, want := range []string{`"trace":"aaaabbbb"`, `"type":"` + events.TypeTxSigned + `"`, `"k":"kind"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSONL missing %q: %s", want, out)
		}
	}
}

func TestEnableWallClock(t *testing.T) {
	l := events.NewLog(2)
	l.EnableWallClock()
	l.Emit(events.TypeTxSigned, "x", 1, "provider/0")
	if evs := l.Select(events.Filter{Trace: "x"}); len(evs) != 1 || evs[0].Wall == 0 {
		t.Fatal("wall clock enabled but event has no timestamp")
	}
}
