// Package events is the one observation ring: every protocol fact a
// node records — a transaction signed, labelled, uploaded, screened,
// packed and committed, a leader elected, a reputation delta with its
// cause, a transport hop, a crash or quorum change — is one Event in a
// bounded ring. Every event carries (node, round, seq) ordering and, for
// a per-transaction fact, the transaction's trace ID, so streams
// scraped from different processes merge into one causally ordered
// cluster history, one transaction's lifecycle is a Filter away, and a
// stream replayed offline reconstructs the exact reputation state the
// ledger recorded (see ReplayReputation).
//
// A trace ID is the hex hash of the signed transaction: each node
// derives it locally from the bytes it already holds, so following a
// transaction across the provider → collector → governor hops needs no
// coordination.
//
// The log is deliberately passive: it never consumes protocol
// randomness, never blocks the round pipeline (one mutex-guarded ring
// append per event), and in deterministic mode never reads the wall
// clock — so enabling it cannot perturb the byte-identical replay
// guarantees the parallel pipeline and the chaos matrix enforce.
package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"

	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// Event type names. The set mirrors the protocol's data path and its
// consensus-significant moments; reputation.* events carry enough
// arguments to re-apply the delta to a fresh table (ReplayReputation).
const (
	// TypeTxSigned is a provider signing one transaction; in process,
	// when the round that drains it signs its provider's batch.
	TypeTxSigned = "tx.signed"
	// TypeTxLabeled is a collector labelling one verified transaction.
	TypeTxLabeled = "tx.labeled"
	// TypeTxUploaded is a collector uploading one labelled transaction
	// to the governors.
	TypeTxUploaded = "tx.uploaded"
	// TypeUploadScreened is a governor's screening decision for one
	// upload: the drawn collector (the paper's ticket draw), whether
	// the draw checked, and the adopted label.
	TypeUploadScreened = "upload.screened"
	// TypeTxArgued is a governor taking up a provider's argue.
	TypeTxArgued = "tx.argued"
	// TypeLeaderElected is the round's VRF leader election outcome.
	TypeLeaderElected = "leader.elected"
	// TypeLeaderExpelled is a governor expelling the round's leader on
	// verified stake-transform evidence.
	TypeLeaderExpelled = "leader.expelled"
	// TypeBlockPacked is the leader packing a block proposal, and
	// TypeTxPacked one record in it.
	TypeBlockPacked = "block.packed"
	TypeTxPacked    = "tx.packed"
	// TypeBlockCommitted is a replica committing a block, and
	// TypeTxCommitted one record in it.
	TypeBlockCommitted = "block.committed"
	TypeTxCommitted    = "tx.committed"
	// TypeReputationForge is an Algorithm 3 case-1 forge penalty.
	TypeReputationForge = "reputation.forge"
	// TypeReputationChecked is an Algorithm 3 case-2 update after a
	// checked screening.
	TypeReputationChecked = "reputation.checked"
	// TypeReputationReveal is an Algorithm 3 case-3 reveal after an
	// accepted argue or an argue-window expiry.
	TypeReputationReveal = "reputation.reveal"
	// TypeHopSent and TypeHopReceived bracket one transport hop: the
	// TCP endpoint emits them when trace propagation is enabled, so a
	// cross-process trace carries per-hop wire latency. The in-process
	// bus never emits them.
	TypeHopSent     = "hop.sent"
	TypeHopReceived = "hop.received"
	// TypeNodeCrash and TypeNodeRestart are failure-detector
	// transitions for one node.
	TypeNodeCrash   = "node.crash"
	TypeNodeRestart = "node.restart"
	// TypeQuorumChange is a change in the live governor quorum
	// (crash, restart, partition, reconnect).
	TypeQuorumChange = "quorum.change"
)

// Attr is one key/value annotation on an event. A slice (not a map)
// keeps JSONL output order deterministic.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Event is one recorded fact. Trace is the hex transaction hash, ""
// for round- or block-scoped facts. Seq is a log-assigned monotone
// sequence number; Wall is unix nanoseconds and stays 0 in
// deterministic mode (only the TCP runtime enables the wall clock).
type Event struct {
	Type  string `json:"type"`
	Trace string `json:"trace,omitempty"`
	Node  string `json:"node,omitempty"`
	Round uint64 `json:"round"`
	Seq   uint64 `json:"seq"`
	Wall  int64  `json:"wall_ns,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute ("" when absent).
func (e Event) Attr(key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Log is a fixed-capacity ring of events. A nil *Log is a valid
// disabled log: every method is nil-safe, so instrumented code needs no
// guards beyond skipping the work of building an event.
type Log struct {
	mu      sync.Mutex
	buf     []Event // guarded by mu
	start   int     // guarded by mu; index of oldest event
	n       int     // guarded by mu; live events
	seq     uint64  // guarded by mu
	dropped uint64  // guarded by mu
	wall    bool
}

// NewLog returns a log holding at most capacity events; older events
// are evicted as new ones arrive. capacity <= 0 yields a nil
// (disabled) log.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		return nil
	}
	return &Log{buf: make([]Event, capacity)}
}

// EnableWallClock makes subsequent events carry wall-clock timestamps.
// Only the TCP runtime turns this on; deterministic simulations leave
// it off so event streams replay byte-identically.
func (l *Log) EnableWallClock() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.wall = true
	l.mu.Unlock()
}

// Emit records one event and returns the sequence number it assigned
// (0 on a nil log). trace is the transaction's trace ID, "" for a
// round- or block-scoped fact. The variadic attrs use slog's vocabulary
// so call sites read like structured log lines. The sequence number
// doubles as the parent reference a transport hop carries.
func (l *Log) Emit(typ, trace string, round uint64, node string, attrs ...slog.Attr) uint64 {
	if l == nil {
		return 0
	}
	ev := Event{Type: typ, Trace: trace, Node: node, Round: round}
	if len(attrs) > 0 {
		ev.Attrs = make([]Attr, len(attrs))
		for i, a := range attrs {
			ev.Attrs[i] = Attr{Key: a.Key, Value: attrValue(a.Value)}
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev.Seq = l.seq
	if l.wall {
		//repchain:dettaint-ok wall timestamps are ring-buffer observability metadata behind the explicit wall opt-in; events are read back only by inspectors and never decoded into consensus state
		ev.Wall = time.Now().UnixNano()
	}
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = ev
		l.n++
	} else {
		l.buf[l.start] = ev
		l.start = (l.start + 1) % len(l.buf)
		l.dropped++
	}
	return l.seq
}

// attrValue renders an slog value as the event's string form. The
// common scalar kinds are handled directly: strconv's small-integer
// fast path and the bool literals avoid the per-attr allocation
// slog.Value.String pays, which matters at hundreds of events per
// round.
func attrValue(v slog.Value) string {
	switch v.Kind() {
	case slog.KindString:
		return v.String()
	case slog.KindInt64:
		return strconv.FormatInt(v.Int64(), 10)
	case slog.KindUint64:
		return strconv.FormatUint(v.Uint64(), 10)
	case slog.KindBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	default:
		return v.String()
	}
}

// Dropped returns how many events were evicted by ring wraparound.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns a copy of the buffered events, oldest first.
func (l *Log) Events() []Event { return l.Select(Filter{}) }

// Select returns the buffered events f matches, oldest first.
func (l *Log) Select(f Filter) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for i := 0; i < l.n; i++ {
		if e := l.buf[(l.start+i)%len(l.buf)]; f.Match(e) {
			out = append(out, e)
		}
	}
	return out
}

// Filter selects events for Select, WriteJSONL and the /events
// endpoint. The zero value matches everything.
type Filter struct {
	// Node, when non-empty, matches only that node's events.
	Node string
	// Round, when non-zero, matches only that round.
	Round uint64
	// AfterSeq matches only events with Seq > AfterSeq — the tailing
	// cursor for `repchain-inspect events --follow`.
	AfterSeq uint64
	// Trace, when non-empty, matches only events of that transaction:
	// by exact trace ID, or by prefix when it is at least 8 hex chars
	// but shorter than the ID. Round-scoped events ("" trace) never
	// match.
	Trace string
}

// Match reports whether f selects e.
func (f Filter) Match(e Event) bool {
	if f.Node != "" && e.Node != f.Node {
		return false
	}
	if f.Round != 0 && e.Round != f.Round {
		return false
	}
	if f.Trace != "" && e.Trace != f.Trace &&
		(len(f.Trace) < 8 || !strings.HasPrefix(e.Trace, f.Trace)) {
		return false
	}
	return e.Seq > f.AfterSeq
}

// WriteJSONL writes matching events as JSON Lines, oldest first.
func (l *Log) WriteJSONL(w io.Writer, f Filter) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Select(f) {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Replay parses a JSONL event stream back into events, in stream
// order. Blank lines are skipped; a malformed line fails the replay
// (an audit trail with holes is worse than an error).
func Replay(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("events: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return out, nil
}

// FormatReports renders a report set as the canonical "c:l,c:l" attr
// value reputation events carry (collector index, signed label).
func FormatReports(reports []reputation.Report) string {
	var b strings.Builder
	for i, r := range reports {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(r.Collector))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(r.Label)))
	}
	return b.String()
}

// ParseReports inverts FormatReports.
func ParseReports(s string) ([]reputation.Report, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]reputation.Report, 0, len(parts))
	for _, p := range parts {
		c, l, ok := strings.Cut(p, ":")
		if !ok {
			return nil, fmt.Errorf("events: malformed report %q", p)
		}
		ci, err := strconv.Atoi(c)
		if err != nil {
			return nil, fmt.Errorf("events: report collector %q: %w", c, err)
		}
		li, err := strconv.Atoi(l)
		if err != nil {
			return nil, fmt.Errorf("events: report label %q: %w", l, err)
		}
		out = append(out, reputation.Report{Collector: ci, Label: tx.Label(li)})
	}
	return out, nil
}

// ReplayReputation re-applies one node's reputation.* events, in
// stream order, to table — which must be a fresh table built with the
// same topology and parameters the node ran with. After replay the
// table's serialized snapshot equals the snapshot the live node ended
// with: the event log alone reconstructs every reputation delta the
// ledger's screening history produced, which is the offline audit
// story the paper's provable mechanism needs.
func ReplayReputation(evs []Event, node string, table *reputation.Table) error {
	for _, e := range evs {
		if e.Node != node {
			continue
		}
		switch e.Type {
		case TypeReputationForge:
			c, err := strconv.Atoi(e.Attr("collector"))
			if err != nil {
				return fmt.Errorf("events: seq %d forge collector: %w", e.Seq, err)
			}
			if err := table.RecordForgery(c); err != nil {
				return fmt.Errorf("events: seq %d: %w", e.Seq, err)
			}
		case TypeReputationChecked, TypeReputationReveal:
			provider, err := strconv.Atoi(e.Attr("provider"))
			if err != nil {
				return fmt.Errorf("events: seq %d provider: %w", e.Seq, err)
			}
			reports, err := ParseReports(e.Attr("reports"))
			if err != nil {
				return fmt.Errorf("events: seq %d: %w", e.Seq, err)
			}
			status, err := strconv.Atoi(e.Attr("status"))
			if err != nil {
				return fmt.Errorf("events: seq %d status: %w", e.Seq, err)
			}
			if e.Type == TypeReputationChecked {
				err = table.RecordChecked(provider, reports, tx.Status(status))
			} else {
				_, err = table.RecordRevealed(provider, reports, tx.Status(status))
			}
			if err != nil {
				return fmt.Errorf("events: seq %d: %w", e.Seq, err)
			}
		}
	}
	return nil
}
