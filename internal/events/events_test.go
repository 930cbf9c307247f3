package events

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"repchain/internal/identity"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	if seq := l.Emit(TypeBlockPacked, "", 1, "governor/0", slog.Int("records", 3)); seq != 0 {
		t.Fatalf("nil Emit seq = %d, want 0", seq)
	}
	l.EnableWallClock()
	if l.Dropped() != 0 || l.Events() != nil || l.Select(Filter{Trace: "deadbeef"}) != nil {
		t.Fatal("nil log leaked state")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}, Filter{}); err != nil {
		t.Fatalf("nil WriteJSONL error = %v", err)
	}
	if NewLog(0) != nil || NewLog(-1) != nil {
		t.Fatal("non-positive capacity must yield a nil log")
	}
}

func TestEmitAssignsSeqAndFields(t *testing.T) {
	l := NewLog(8)
	first := l.Emit(TypeUploadScreened, "abcd", 3, "governor/1",
		slog.String("tx", "abcd"), slog.Bool("checked", true))
	second := l.Emit(TypeBlockCommitted, "", 3, "governor/1", slog.Uint64("serial", 3))
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if first != 1 || second != 2 {
		t.Fatalf("Emit returned seqs %d,%d, want 1,2", first, second)
	}
	e := evs[0]
	if e.Type != TypeUploadScreened || e.Trace != "abcd" || e.Node != "governor/1" || e.Round != 3 || e.Seq != 1 {
		t.Fatalf("event fields = %+v", e)
	}
	if e.Attr("tx") != "abcd" || e.Attr("checked") != "true" || e.Attr("missing") != "" {
		t.Fatalf("attrs = %+v", e.Attrs)
	}
	if e.Wall != 0 {
		t.Fatal("wall clock must stay 0 in deterministic mode")
	}
	if evs[1].Seq != 2 {
		t.Fatalf("second seq = %d, want 2", evs[1].Seq)
	}
}

func TestRingEvictionCountsDropped(t *testing.T) {
	l := NewLog(2)
	for i := 0; i < 5; i++ {
		l.Emit(TypeBlockPacked, "", uint64(i), "g")
	}
	if n := len(l.Events()); n != 2 {
		t.Fatalf("buffered %d events, want the capacity 2", n)
	}
	if l.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", l.Dropped())
	}
	evs := l.Events()
	if evs[0].Round != 3 || evs[1].Round != 4 {
		t.Fatalf("ring kept rounds %d,%d; want 3,4", evs[0].Round, evs[1].Round)
	}
}

func TestEnableWallClock(t *testing.T) {
	l := NewLog(4)
	l.EnableWallClock()
	l.Emit(TypeNodeCrash, "", 7, "collector/2", slog.String("cause", "crash"))
	if l.Events()[0].Wall == 0 {
		t.Fatal("wall clock enabled but Wall is 0")
	}
}

// TestByTracePrefix: Filter.Trace matches a trace ID exactly or by a
// prefix of at least 8 characters; a shorter prefix matches nothing.
func TestByTracePrefix(t *testing.T) {
	l := NewLog(8)
	full := "0123456789abcdef0123456789abcdef"
	l.Emit(TypeTxSigned, full, 1, "provider/0")
	l.Emit(TypeLeaderElected, "", 1, "governor/0") // round-scoped, no trace
	l.Emit(TypeTxSigned, "ffff56789abcdef0", 1, "provider/1")

	if got := l.Select(Filter{Trace: full}); len(got) != 1 {
		t.Fatalf("exact match found %d events", len(got))
	}
	if got := l.Select(Filter{Trace: full[:8]}); len(got) != 1 || got[0].Trace != full {
		t.Fatalf("8-char prefix found %v", got)
	}
	if got := l.Select(Filter{Trace: full[:4]}); got != nil {
		t.Fatalf("4-char prefix should not match, found %v", got)
	}
}

func TestWriteJSONLFilterAndReplay(t *testing.T) {
	l := NewLog(16)
	l.Emit(TypeBlockPacked, "", 1, "governor/0")
	l.Emit(TypeBlockPacked, "", 1, "governor/1")
	l.Emit(TypeBlockCommitted, "", 2, "governor/0")

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf, Filter{Node: "governor/0"}); err != nil {
		t.Fatal(err)
	}
	evs, err := Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Round != 1 || evs[1].Round != 2 {
		t.Fatalf("filtered replay = %+v", evs)
	}

	buf.Reset()
	if err := l.WriteJSONL(&buf, Filter{Round: 2}); err != nil {
		t.Fatal(err)
	}
	evs, _ = Replay(&buf)
	if len(evs) != 1 || evs[0].Type != TypeBlockCommitted {
		t.Fatalf("round filter = %+v", evs)
	}

	buf.Reset()
	if err := l.WriteJSONL(&buf, Filter{AfterSeq: 2}); err != nil {
		t.Fatal(err)
	}
	evs, _ = Replay(&buf)
	if len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("after-seq filter = %+v", evs)
	}
}

func TestReplayRejectsMalformedLine(t *testing.T) {
	if _, err := Replay(strings.NewReader("{\"type\":\"a\"}\nnot-json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestFormatParseReportsRoundTrip(t *testing.T) {
	reports := []reputation.Report{
		{Collector: 0, Label: tx.LabelValid},
		{Collector: 3, Label: tx.LabelInvalid},
	}
	s := FormatReports(reports)
	back, err := ParseReports(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != reports[0] || back[1] != reports[1] {
		t.Fatalf("round trip %q -> %+v", s, back)
	}
	if got, err := ParseReports(""); err != nil || got != nil {
		t.Fatalf("empty parse = %v, %v", got, err)
	}
	for _, bad := range []string{"x", "1:", ":1", "a:1", "1:b"} {
		if _, err := ParseReports(bad); err == nil {
			t.Fatalf("malformed %q accepted", bad)
		}
	}
}

// TestReplayReputationReconstructsTable drives a live table through
// every Algorithm 3 case while logging the matching events, then
// replays the log into a fresh table and demands snapshot equality —
// the offline audit property.
func TestReplayReputationReconstructsTable(t *testing.T) {
	topo, err := identity.NewRegularTopology(identity.TopologySpec{Providers: 4, Collectors: 4, Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := reputation.DefaultParams()
	live, err := reputation.NewTable(topo, params)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(64)
	const node = "governor/0"

	reports := func(p int) []reputation.Report {
		var out []reputation.Report
		for i, c := range topo.CollectorsOf(p) {
			label := tx.LabelValid
			if i%2 == 1 {
				label = tx.LabelInvalid
			}
			out = append(out, reputation.Report{Collector: c, Label: label})
		}
		return out
	}

	if err := live.RecordForgery(1); err != nil {
		t.Fatal(err)
	}
	l.Emit(TypeReputationForge, "", 1, node, slog.Int("collector", 1))

	r0 := reports(0)
	if err := live.RecordChecked(0, r0, tx.StatusValid); err != nil {
		t.Fatal(err)
	}
	l.Emit(TypeReputationChecked, "", 1, node,
		slog.Int("provider", 0),
		slog.String("reports", FormatReports(r0)),
		slog.Int("status", int(tx.StatusValid)))

	r2 := reports(2)
	if _, err := live.RecordRevealed(2, r2, tx.StatusInvalid); err != nil {
		t.Fatal(err)
	}
	l.Emit(TypeReputationReveal, "", 2, node,
		slog.Int("provider", 2),
		slog.String("reports", FormatReports(r2)),
		slog.Int("status", int(tx.StatusInvalid)))

	// Another node's events must not leak into the replay.
	l.Emit(TypeReputationForge, "", 2, "governor/1", slog.Int("collector", 0))

	fresh, err := reputation.NewTable(topo, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayReputation(l.Events(), node, fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Snapshot(), fresh.Snapshot()) {
		t.Fatal("replayed table snapshot differs from the live table")
	}
}

func TestReplayReputationRejectsBadAttrs(t *testing.T) {
	topo, _ := identity.NewRegularTopology(identity.TopologySpec{Providers: 2, Collectors: 2, Degree: 1})
	table, _ := reputation.NewTable(topo, reputation.DefaultParams())
	bad := []Event{{Type: TypeReputationForge, Node: "g", Seq: 1, Attrs: []Attr{{Key: "collector", Value: "x"}}}}
	if err := ReplayReputation(bad, "g", table); err == nil {
		t.Fatal("bad collector attr accepted")
	}
	bad = []Event{{Type: TypeReputationChecked, Node: "g", Seq: 2, Attrs: []Attr{
		{Key: "provider", Value: "0"}, {Key: "reports", Value: "0:1"}, {Key: "status", Value: "zz"}}}}
	if err := ReplayReputation(bad, "g", table); err == nil {
		t.Fatal("bad status attr accepted")
	}
}
