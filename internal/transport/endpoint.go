package transport

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/metrics"
)

// Frame is one authenticated application message.
type Frame struct {
	// From is the sender's node ID.
	From identity.NodeID
	// Kind classifies the payload (network.Kind* constants).
	Kind string
	// Payload is the encoded protocol message.
	Payload []byte
	// Counter is the sender's monotone frame counter, one value per
	// Multicast, preventing replay within and across connections.
	Counter uint64
	// Trace is the optional trace-propagation context (DESIGN.md §4h).
	Trace *TraceCtx
}

// TraceCtx is the trace context a frame carries across a transport
// hop: the transaction's trace ID, the sequence number of the sender's
// hop.sent event, and the sender's wall clock at send time (per-hop latency =
// receiver wall − SentNS, under the deployment's loose clock-sync
// assumption; see DESIGN.md §4h for the clock model). The context is
// covered by the frame tag — a middlebox cannot strip or forge it
// without invalidating the frame.
type TraceCtx struct {
	// Trace is the hex transaction hash (the trace ID).
	Trace string
	// Parent is the seq of the sender's hop.sent event for this hop,
	// scoped to the sender's event log.
	Parent uint64
	// SentNS is the sender's wall clock at send, unix nanoseconds.
	SentNS int64
}

// Wire format (DESIGN.md §4h): a 4-byte big-endian length, the body
// (from, kind, payload, counter and, when present, the trace context),
// then an HMAC-SHA256 tag over the body under the sender→recipient key.
const (
	lenSize        = 4
	tagSize        = sha256.Size
	frameMACDomain = "repchain/frame-mac/v1" // HKDF salt of the frame keys
	maxFrameSize   = 8 << 20                 // 8 MiB: protects receivers from hostile length prefixes
)

// encodeWire writes f as it goes on the wire, tag slot still zero, into
// a pooled encoder the caller releases; seal fills the slot per recipient.
func encodeWire(f Frame) *codec.Encoder {
	e := codec.GetEncoder(lenSize + 64 + len(f.Payload) + tagSize)
	var zero [tagSize]byte
	e.PutRaw(zero[:lenSize])
	e.PutString(string(f.From))
	e.PutString(f.Kind)
	e.PutBytes(f.Payload)
	e.PutUint64(f.Counter)
	if f.Trace != nil {
		e.PutString(f.Trace.Trace)
		e.PutUint64(f.Trace.Parent)
		e.PutVarint(f.Trace.SentNS)
	}
	e.PutRaw(zero[:])
	binary.BigEndian.PutUint32(e.Bytes(), uint32(e.Len()-lenSize))
	return e
}

// decodeFrame decodes the rest of an authenticated body whose sender ID
// has been read from d. Its caller wants a verdict, so no read stops it.
func decodeFrame(d *codec.Decoder, f *Frame) error {
	var errs [7]error
	f.Kind, errs[0] = d.String()
	f.Payload, errs[1] = d.Bytes()
	f.Counter, errs[2] = d.Uint64()
	if d.Remaining() > 0 {
		f.Trace = new(TraceCtx)
		f.Trace.Trace, errs[3] = d.String()
		f.Trace.Parent, errs[4] = d.Uint64()
		f.Trace.SentNS, errs[5] = d.Varint()
	}
	errs[6] = d.Expect()
	return errors.Join(errs[:]...)
}

// peer is another member as this endpoint sees it: its address and the
// two directional MAC keys, held as keyed HMAC states that Reset reuses.
type peer struct {
	addr    string
	sendMu  sync.Mutex
	sendMAC hash.Hash // guarded by sendMu
	recvMu  sync.Mutex
	recvMAC hash.Hash     // guarded by recvMu
	recvSum [tagSize]byte // guarded by recvMu
	lastCtr uint64        // guarded by recvMu
}

// seal fills wire's tag slot with the tag for this peer.
func (p *peer) seal(wire []byte) {
	body := wire[lenSize : len(wire)-tagSize]
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	p.sendMAC.Reset()
	p.sendMAC.Write(body)
	p.sendMAC.Sum(body) // appends into the slot
}

// Endpoint is one node's TCP attachment: it listens on the node's
// address, dials peers lazily, tags outgoing frames under each
// recipient's pairwise key, and authenticates incoming ones likewise.
type Endpoint struct {
	self  identity.NodeID
	reg   *metrics.Registry
	peers map[identity.NodeID]*peer // every other member; read-only after NewEndpoint

	// Trace propagation (set once before traffic via
	// EnableTracePropagation): events receives hop.sent/hop.received
	// events and traceID derives the trace ID from (kind, payload).
	// Both nil by default — frames then carry no trace section.
	events  *events.Log
	traceID func(kind string, payload []byte) string

	// logger, when non-nil, receives structured diagnostics (rejected
	// frames, exhausted deliveries). Never wired into protocol
	// decisions.
	logger *slog.Logger

	mu       sync.Mutex
	conns    map[identity.NodeID]net.Conn
	inbound  []net.Conn
	counter  uint64
	policy   retryPolicy
	closed   bool
	listener net.Listener

	inboxMu     sync.Mutex
	inbox       []Frame
	inboxByPeer map[identity.NodeID]int
	// inflight is the per-peer inbox bound, maxInflightPerPeer outside
	// tests.
	inflight int
	// arrived holds one pending wake-up for a driver waiting on the
	// inbox; deliver fills it without blocking.
	arrived chan struct{}

	wg sync.WaitGroup
}

// NewEndpoint creates and starts an endpoint for node id, listening on
// the node's deployment address. It derives the frame keys for every
// other member here, once and with no message exchanged: static X25519
// between the identity keys, then one HKDF output per direction.
func NewEndpoint(d *Deployment, id identity.NodeID) (*Endpoint, error) {
	spec, err := d.Node(string(id))
	if err != nil {
		return nil, err
	}
	key, err := spec.PrivateKeyOf()
	if err != nil {
		return nil, err
	}
	ep := &Endpoint{
		self:     id,
		reg:      metrics.NewRegistry(),
		peers:    make(map[identity.NodeID]*peer, len(d.Nodes)),
		conns:    make(map[identity.NodeID]net.Conn),
		policy:   defaultRetryPolicy,
		inflight: maxInflightPerPeer,
		arrived:  make(chan struct{}, 1),
	}
	for _, n := range d.Nodes {
		if n.ID == string(id) {
			continue
		}
		pub, err := n.PublicKeyOf()
		if err != nil {
			return nil, err
		}
		secret, err := key.SharedSecret(pub)
		if err != nil {
			return nil, fmt.Errorf("node %q frame key: %w", n.ID, err)
		}
		ep.peers[identity.NodeID(n.ID)] = &peer{
			addr:    n.Addr,
			sendMAC: hmac.New(sha256.New, crypto.DeriveKey(secret, frameMACDomain, spec.ID, n.ID)),
			recvMAC: hmac.New(sha256.New, crypto.DeriveKey(secret, frameMACDomain, n.ID, spec.ID)),
		}
	}
	ln, err := net.Listen("tcp", spec.Addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", spec.Addr, err)
	}
	ep.listener = ln
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// ID returns the endpoint's node ID.
func (ep *Endpoint) ID() identity.NodeID { return ep.self }

// Metrics exposes the endpoint's transport.* counters: frames_sent,
// frames_received, dials, retries, send_failures, inflight_dropped and
// frames_rejected_total{reason}.
func (ep *Endpoint) Metrics() *metrics.Registry { return ep.reg }

// UseMetrics replaces the endpoint's registry with a shared one, so
// several endpoints in one process (the -demo alliance) aggregate into
// a single exposition. Call before any traffic flows; counters are
// resolved by name on use, so earlier counts simply stay in the old
// registry.
func (ep *Endpoint) UseMetrics(reg *metrics.Registry) {
	if reg != nil {
		ep.reg = reg
	}
}

// maxInflightPerPeer bounds the received-but-undrained frames held
// per peer, so a fast or hostile peer cannot grow a slow consumer's
// inbox without limit. It is far above any legitimate backlog, which
// one round's arrivals from one peer bound: a collector drains its inbox
// once a round, at the upload cutoff, and a governor on every arrival
// while it waits. From a provider that is one frame per transaction it
// sent in the round; from a collector or a governor, a handful of
// frames.
const maxInflightPerPeer = 1 << 16

// deliver appends a frame to the inbox unless the sender is at the
// inflight bound, in which case the frame is dropped and counted in
// transport.inflight_dropped. An appended frame wakes a waiting driver.
func (ep *Endpoint) deliver(f Frame) {
	ep.inboxMu.Lock()
	defer ep.inboxMu.Unlock()
	if ep.inboxByPeer[f.From] >= ep.inflight {
		ep.reg.Counter("transport.inflight_dropped").Inc()
		return
	}
	if ep.inboxByPeer == nil {
		ep.inboxByPeer = make(map[identity.NodeID]int)
	}
	ep.inboxByPeer[f.From]++
	ep.inbox = append(ep.inbox, f)
	select {
	case ep.arrived <- struct{}{}:
	default:
	}
}

// Arrived signals that a frame has reached the inbox since the signal
// was last taken. Any number of arrivals leave at most one signal
// pending, so a driver takes it, then drains everything with Receive;
// a frame that lands after that Receive raises the signal again.
func (ep *Endpoint) Arrived() <-chan struct{} { return ep.arrived }

// EnableTracePropagation turns on cross-process trace stitching: every
// outgoing frame whose payload maps to a trace ID (per idOf) carries a
// trace context under the frame tag, and both sides of the hop emit
// hop.sent/hop.received events into evs with the per-hop wire latency.
// Call before any traffic flows. With propagation off (the default)
// frames carry no trace section.
func (ep *Endpoint) EnableTracePropagation(evs *events.Log, idOf func(kind string, payload []byte) string) {
	ep.mu.Lock()
	ep.events = evs
	ep.traceID = idOf
	ep.mu.Unlock()
}

// SetLogger attaches a structured logger for transport diagnostics
// (rejected frames, exhausted deliveries). Nil (the default) keeps the
// endpoint silent.
func (ep *Endpoint) SetLogger(l *slog.Logger) {
	ep.mu.Lock()
	ep.logger = l
	ep.mu.Unlock()
}

// Addr returns the bound listen address (useful with port 0).
func (ep *Endpoint) Addr() string { return ep.listener.Addr().String() }

func (ep *Endpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		conn, err := ep.listener.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			_ = conn.Close()
			return
		}
		ep.inbound = append(ep.inbound, conn)
		ep.mu.Unlock()
		ep.wg.Add(1)
		go ep.readLoop(conn)
	}
}

func (ep *Endpoint) readLoop(conn net.Conn) {
	defer ep.wg.Done()
	defer func() { _ = conn.Close() }()
	for {
		var lenBuf [lenSize]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrameSize {
			// The stream cannot be resynchronised past a bad length.
			ep.reject(Frame{}, rejectDecode)
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		frame, reason := ep.open(buf)
		if reason != "" {
			ep.reject(frame, reason)
			continue
		}
		ep.reg.Counter("transport.frames_received").Inc()
		ep.emitHopReceived(frame)
		ep.deliver(frame)
	}
}

// Why a received frame is refused: transport.frames_rejected_total's labels.
const (
	rejectDecode      = "decode"       // malformed length, body or sender field
	rejectSelf        = "self"         // claims to come from this node (reflection)
	rejectUnknownPeer = "unknown_peer" // sender is not in the deployment
	rejectBadTag      = "bad_tag"      // tag does not verify under the sender's key
	rejectReplay      = "replay"       // counter not above the sender's last one
)

// reject counts and logs a refused frame; f is whatever open had read.
func (ep *Endpoint) reject(f Frame, reason string) {
	ep.reg.CounterVec("transport.frames_rejected_total", "reason").With(reason).Inc()
	ep.logWarn("frame rejected",
		slog.String("reason", reason),
		slog.String("from", string(f.From)),
		slog.String("kind", f.Kind))
}

// open authenticates one received frame (body, then tag) and decodes
// it, or names the reason it is refused. The tag is verified over the
// raw body before anything but the sender ID, which selects the key, is
// parsed; the replay counter is read only from an authenticated body.
func (ep *Endpoint) open(raw []byte) (f Frame, reason string) {
	if len(raw) < tagSize {
		return f, rejectDecode
	}
	body, tag := raw[:len(raw)-tagSize], raw[len(raw)-tagSize:]
	d := codec.NewDecoder(body)
	from, err := d.String()
	if err != nil {
		return f, rejectDecode
	}
	f.From = identity.NodeID(from)
	if f.From == ep.self {
		return f, rejectSelf
	}
	p, ok := ep.peers[f.From]
	if !ok {
		return f, rejectUnknownPeer
	}
	p.recvMu.Lock()
	defer p.recvMu.Unlock()
	p.recvMAC.Reset()
	p.recvMAC.Write(body)
	if !hmac.Equal(p.recvMAC.Sum(p.recvSum[:0]), tag) {
		return f, rejectBadTag
	}
	if err := decodeFrame(d, &f); err != nil {
		return f, rejectDecode
	}
	if f.Counter <= p.lastCtr {
		return f, rejectReplay
	}
	p.lastCtr = f.Counter
	return f, ""
}

// logWarn emits a structured warning when a logger is attached.
func (ep *Endpoint) logWarn(msg string, attrs ...slog.Attr) {
	ep.mu.Lock()
	l := ep.logger
	ep.mu.Unlock()
	if l != nil {
		l.LogAttrs(context.Background(), slog.LevelWarn, msg, append([]slog.Attr{slog.String("node", string(ep.self))}, attrs...)...)
	}
}

// emitHopReceived records the receive half of a traced transport hop:
// the event carries the sender's hop.sent seq as parent and the
// measured hop latency (receiver wall − sender SentNS; meaningful to
// the deployment's clock-sync bound, negative values are reported
// as-is so skew is visible rather than hidden).
func (ep *Endpoint) emitHopReceived(f Frame) {
	if f.Trace == nil {
		return
	}
	ep.mu.Lock()
	evs := ep.events
	ep.mu.Unlock()
	if evs == nil {
		return
	}
	latency := time.Now().UnixNano() - f.Trace.SentNS
	evs.Emit(events.TypeHopReceived, f.Trace.Trace, 0, string(ep.self),
		slog.String("from", string(f.From)),
		slog.String("kind", f.Kind),
		slog.Uint64("parent", f.Trace.Parent),
		slog.Int64("sent_ns", f.Trace.SentNS),
		slog.Int64("latency_ns", latency))
}

// Multicast sends one frame to each recipient, best-effort: every
// recipient gets its attempts even when an earlier one fails, and the
// per-recipient errors come back joined, so one dead peer never blocks
// delivery to the rest. The body is encoded once, under one counter;
// only the tag differs per recipient. This node's own ID in to is
// delivered locally.
//
// Concurrency: the endpoint's bookkeeping is mutex-guarded, but
// concurrent sends to the *same* peer may interleave partial TCP
// writes. The node runtimes are single-threaded per node (one
// goroutine owns each endpoint), which is the supported usage.
func (ep *Endpoint) Multicast(to []identity.NodeID, kind string, payload []byte) error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return ErrClosed
	}
	ep.counter++
	frame := Frame{From: ep.self, Kind: kind, Payload: payload, Counter: ep.counter}
	evs, idOf, pol := ep.events, ep.traceID, ep.policy
	ep.mu.Unlock()

	// With propagation enabled and a per-transaction payload, stamp the
	// trace context and record the send half of the hop.
	if evs != nil && idOf != nil {
		if id := idOf(kind, payload); id != "" {
			parent := evs.Emit(events.TypeHopSent, id, 0, string(ep.self),
				slog.String("to", fmt.Sprint(to)),
				slog.String("kind", kind))
			//repchain:dettaint-ok SentNS is the tagged trace context (DESIGN §4h): hop-local send metadata only the sender writes; the receiver checks the received bytes, so replicas never need to agree on the value
			frame.Trace = &TraceCtx{Trace: id, Parent: parent, SentNS: time.Now().UnixNano()}
		}
	}
	e := encodeWire(frame)
	defer e.Release()

	var errs []error
	for _, dst := range to {
		if dst == ep.self {
			ep.deliver(Frame{From: ep.self, Kind: kind, Payload: payload, Counter: frame.Counter})
			continue
		}
		if err := ep.sendTo(dst, kind, e.Bytes(), pol); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Send delivers one frame to one peer: a Multicast of one.
func (ep *Endpoint) Send(to identity.NodeID, kind string, payload []byte) error {
	return ep.Multicast([]identity.NodeID{to}, kind, payload)
}

// sendTo seals wire for one peer and delivers it under pol: lazy dial
// with a timeout, write under a deadline, capped exponential backoff.
// A flapping peer costs bounded time per frame; a dead one fails the
// frame after maxAttempts without wedging the caller.
func (ep *Endpoint) sendTo(to identity.NodeID, kind string, wire []byte, pol retryPolicy) error {
	p, ok := ep.peers[to]
	if !ok {
		return fmt.Errorf("send to %q: %w", to, ErrUnknownPeer)
	}
	p.seal(wire)
	var lastErr error
	for attempt := 1; attempt <= pol.maxAttempts; attempt++ {
		if attempt > 1 {
			ep.reg.Counter("transport.retries").Inc()
			time.Sleep(pol.backoff(attempt - 1))
		}
		if err := ep.sendOnce(to, p.addr, wire, pol); err != nil {
			if errors.Is(err, ErrClosed) {
				return err
			}
			lastErr = err
			continue
		}
		ep.reg.Counter("transport.frames_sent").Inc()
		return nil
	}
	ep.reg.Counter("transport.send_failures").Inc()
	ep.logWarn("delivery exhausted",
		slog.String("to", string(to)),
		slog.String("kind", kind),
		slog.Int("attempts", pol.maxAttempts),
		slog.String("error", fmt.Sprint(lastErr)))
	return fmt.Errorf("send to %q after %d attempts: %w", to, pol.maxAttempts, lastErr)
}

// sendOnce makes a single delivery attempt: reuse the cached
// connection if any, else dial fresh. Either path writes under
// writeTimeout; a failed cached connection is discarded so the next
// attempt redials.
func (ep *Endpoint) sendOnce(to identity.NodeID, addr string, msg []byte, pol retryPolicy) error {
	write := func(c net.Conn) error {
		if err := c.SetWriteDeadline(time.Now().Add(pol.writeTimeout)); err != nil {
			return err
		}
		_, err := c.Write(msg)
		return err
	}
	ep.mu.Lock()
	conn := ep.conns[to]
	ep.mu.Unlock()
	if conn != nil {
		if err := write(conn); err == nil {
			return nil
		}
		// Stale connection: drop it and dial fresh within the same
		// attempt — a half-dead cached socket should not consume a
		// whole retry.
		ep.mu.Lock()
		if ep.conns[to] == conn {
			delete(ep.conns, to)
		}
		ep.mu.Unlock()
		_ = conn.Close()
	}
	ep.reg.Counter("transport.dials").Inc()
	fresh, err := net.DialTimeout("tcp", addr, pol.dialTimeout)
	if err != nil {
		return fmt.Errorf("dial %q: %w", to, err)
	}
	if err := write(fresh); err != nil {
		_ = fresh.Close()
		return fmt.Errorf("write to %q: %w", to, err)
	}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		_ = fresh.Close()
		return ErrClosed
	}
	if old, ok := ep.conns[to]; ok && old != fresh {
		_ = old.Close()
	}
	ep.conns[to] = fresh
	ep.mu.Unlock()
	return nil
}

// Receive drains the inbox.
func (ep *Endpoint) Receive() []Frame {
	ep.inboxMu.Lock()
	defer ep.inboxMu.Unlock()
	out := ep.inbox
	ep.inbox = nil
	ep.inboxByPeer = nil
	return out
}

// Close shuts the listener and all connections and joins the reader
// goroutines.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	err := ep.listener.Close()
	for _, c := range ep.conns {
		_ = c.Close()
	}
	for _, c := range ep.inbound {
		_ = c.Close()
	}
	ep.conns = make(map[identity.NodeID]net.Conn)
	ep.inbound = nil
	ep.mu.Unlock()
	ep.wg.Wait()
	if err != nil {
		return fmt.Errorf("close listener: %w", err)
	}
	return nil
}
