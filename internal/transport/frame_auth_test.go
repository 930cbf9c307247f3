package transport

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"net"
	"testing"
	"time"

	"repchain/internal/crypto"
	"repchain/internal/identity"
)

// reloaded returns d as another process would see it: through its JSON
// form.
func reloaded(t testing.TB, d *Deployment) *Deployment {
	t.Helper()
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var out Deployment
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// endpoints starts one endpoint per id, each from its own reloaded copy
// of the deployment, and closes them with the test.
func endpoints(t testing.TB, d *Deployment, ids ...identity.NodeID) []*Endpoint {
	t.Helper()
	out := make([]*Endpoint, len(ids))
	for i, id := range ids {
		ep, err := NewEndpoint(reloaded(t, d), id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		out[i] = ep
	}
	return out
}

// sealed returns what a receiver reads off the wire, after the length
// prefix, when from sends f to the peer to.
func sealed(t testing.TB, from *Endpoint, to identity.NodeID, f Frame) []byte {
	t.Helper()
	e := encodeWire(f)
	defer e.Release()
	from.peers[to].seal(e.Bytes())
	return bytes.Clone(e.Bytes()[lenSize:])
}

// pushRaw writes raw frames, each behind its length prefix, to addr
// over one fresh connection.
func pushRaw(t testing.TB, addr string, raws ...[]byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for _, raw := range raws {
		msg := binary.BigEndian.AppendUint32(nil, uint32(len(raw)))
		if _, err := conn.Write(append(msg, raw...)); err != nil {
			t.Fatal(err)
		}
	}
}

func rejected(ep *Endpoint, reason string) int64 {
	return ep.Metrics().CounterVec("transport.frames_rejected_total", "reason").With(reason).Value()
}

func tagOf(h hash.Hash, msg []byte) []byte {
	h.Reset()
	h.Write(msg)
	return h.Sum(nil)
}

// frameKey derives the from→to frame key the way the design states it,
// from the deployment file alone.
func frameKey(t testing.TB, d *Deployment, from, to string) []byte {
	t.Helper()
	src, err := d.Node(from)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := d.Node(to)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := src.PrivateKeyOf()
	if err != nil {
		t.Fatal(err)
	}
	pub, err := dst.PublicKeyOf()
	if err != nil {
		t.Fatal(err)
	}
	secret, err := priv.SharedSecret(pub)
	if err != nil {
		t.Fatal(err)
	}
	return crypto.DeriveKey(secret, "repchain/frame-mac/v1", from, to)
}

// TestPairwiseKeysAgree: endpoints built independently hold the same
// key for each direction of a link, a different one per direction, and
// a different one per pair.
func TestPairwiseKeysAgree(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 3)
	eps := endpoints(t, d, "governor/0", "governor/1", "governor/2")
	a, b := eps[0], eps[1]
	msg := []byte("same bytes under every key")

	ab := tagOf(a.peers["governor/1"].sendMAC, msg)
	if !bytes.Equal(ab, tagOf(b.peers["governor/0"].recvMAC, msg)) {
		t.Fatal("A's send key for B is not B's receive key for A")
	}
	ba := tagOf(b.peers["governor/0"].sendMAC, msg)
	if !bytes.Equal(ba, tagOf(a.peers["governor/1"].recvMAC, msg)) {
		t.Fatal("B's send key for A is not A's receive key for B")
	}
	if bytes.Equal(ab, ba) {
		t.Fatal("the two directions of a link share a key")
	}
	if bytes.Equal(ab, tagOf(a.peers["governor/2"].sendMAC, msg)) {
		t.Fatal("two pairs share a key")
	}
	want := hmac.New(sha256.New, frameKey(t, d, "governor/0", "governor/1"))
	if !bytes.Equal(ab, tagOf(want, msg)) {
		t.Fatal("endpoint key differs from X25519 + HKDF over the deployment's identity keys")
	}
	if _, ok := a.peers["governor/0"]; ok {
		t.Fatal("endpoint derived a key for itself")
	}
}

var authFrames = map[string]Frame{
	"plain":  {From: "governor/0", Kind: "k", Payload: []byte("data"), Counter: 7},
	"traced": {From: "governor/0", Kind: "k", Payload: []byte("data"), Counter: 7, Trace: &TraceCtx{Trace: "deadbeefdeadbeef", Parent: 42, SentNS: 123456789}},
}

func TestFrameOpenRoundTrip(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	eps := endpoints(t, d, "governor/0", "governor/1")
	a, b := eps[0], eps[1]
	for name, f := range authFrames {
		b.peers["governor/0"].lastCtr = 0
		got, reason := b.open(sealed(t, a, "governor/1", f))
		if reason != "" {
			t.Fatalf("%s: rejected: %s", name, reason)
		}
		if got.From != f.From || got.Kind != f.Kind || !bytes.Equal(got.Payload, f.Payload) || got.Counter != f.Counter {
			t.Fatalf("%s: opened %+v, sent %+v", name, got, f)
		}
		if (got.Trace == nil) != (f.Trace == nil) || (f.Trace != nil && *got.Trace != *f.Trace) {
			t.Fatalf("%s: trace context %+v, sent %+v", name, got.Trace, f.Trace)
		}
	}
	for name, raw := range map[string][]byte{
		"empty":              nil,
		"shorter than a tag": []byte("junk"),
		"no sender field":    bytes.Repeat([]byte{0xff}, 64),
	} {
		if _, reason := b.open(raw); reason != rejectDecode {
			t.Fatalf("%s: reason %q, want %q", name, reason, rejectDecode)
		}
	}
	// An authentic tag over a body that does not decode: the sender is
	// known, the bytes are theirs, and the frame is still refused.
	e := encodeWire(authFrames["plain"])
	wire := append(bytes.Clone(e.Bytes()), 0) // one more body byte: a truncated trace section
	e.Release()
	a.peers["governor/1"].seal(wire)
	if _, reason := b.open(wire[lenSize:]); reason != rejectDecode {
		t.Fatalf("authentic malformed body: reason %q, want %q", reason, rejectDecode)
	}
}

// TestOpenRejectsEveryByteFlip flips each byte of a frame on the wire,
// three ways. Outside the sender field every flip must fail the tag;
// inside it the flip changes who the frame claims to be from, so the
// lookup may refuse it first. Nothing is delivered and the replay
// counter does not move.
func TestOpenRejectsEveryByteFlip(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 3)
	eps := endpoints(t, d, "governor/0", "governor/1")
	a, b := eps[0], eps[1]
	for name, f := range authFrames {
		raw := sealed(t, a, "governor/1", f)
		senderEnd := 1 + len(f.From) // one length byte, then the ID
		for i := range raw {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				bad := bytes.Clone(raw)
				bad[i] ^= mask
				_, reason := b.open(bad)
				switch {
				case reason == "":
					t.Fatalf("%s: flip %#x at byte %d of %d accepted", name, mask, i, len(raw))
				case i >= senderEnd && reason != rejectBadTag:
					t.Fatalf("%s: flip %#x at byte %d: reason %q, want %q", name, mask, i, reason, rejectBadTag)
				case reason == rejectReplay:
					t.Fatalf("%s: flip %#x at byte %d reached the replay check", name, mask, i)
				}
			}
		}
		if got := b.peers["governor/0"].lastCtr; got != 0 {
			t.Fatalf("%s: rejected frames moved the replay counter to %d", name, got)
		}
		if _, reason := b.open(raw); reason != "" {
			t.Fatalf("%s: untouched frame rejected: %s", name, reason)
		}
		b.peers["governor/0"].lastCtr = 0
	}
}

func TestOpenRejectsReplayAndReorder(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	eps := endpoints(t, d, "governor/0", "governor/1")
	a, b := eps[0], eps[1]
	frame := func(ctr uint64) []byte {
		return sealed(t, a, "governor/1", Frame{From: "governor/0", Kind: "k", Payload: []byte{byte(ctr)}, Counter: ctr})
	}
	for _, step := range []struct {
		ctr  uint64
		want string
	}{
		{5, ""},
		{5, rejectReplay}, // the same frame again
		{3, rejectReplay}, // an older frame overtaken on another connection
		{6, ""},
	} {
		if _, reason := b.open(frame(step.ctr)); reason != step.want {
			t.Fatalf("counter %d: reason %q, want %q", step.ctr, reason, step.want)
		}
	}
}

// TestEndpointCountsRejections pushes one frame of every refused kind
// through a real socket: none is delivered and each lands under its
// own reason.
func TestEndpointCountsRejections(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 3)
	eps := endpoints(t, d, "governor/0", "governor/1", "governor/2")
	a, b := eps[0], eps[1]
	if err := a.Send("governor/1", "one", []byte("1")); err != nil {
		t.Fatal(err)
	}
	_ = waitFrames(t, b, 1)

	toB := func(f Frame) []byte { return sealed(t, a, "governor/1", f) }
	pushRaw(t, b.Addr(),
		[]byte("junk"),
		toB(Frame{From: "ghost", Kind: "evil", Counter: 9}),
		// B's own frame to A, reflected back at B.
		sealed(t, b, "governor/0", Frame{From: "governor/1", Kind: "evil", Counter: 9}),
		// A claiming to be governor/2, under the only key A has for B.
		toB(Frame{From: "governor/2", Kind: "evil", Counter: 9}),
		toB(Frame{From: "governor/0", Kind: "evil", Payload: []byte("1"), Counter: 1}),
	)
	reasons := []string{rejectDecode, rejectUnknownPeer, rejectSelf, rejectBadTag, rejectReplay}
	deadline := time.Now().Add(3 * time.Second)
	for {
		var total int64
		for _, r := range reasons {
			total += rejected(b, r)
		}
		if total >= int64(len(reasons)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saw %d of %d rejections", total, len(reasons))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, r := range reasons {
		if got := rejected(b, r); got != 1 {
			t.Fatalf("frames_rejected_total{reason=%q} = %d, want 1", r, got)
		}
	}
	if err := a.Send("governor/1", "two", []byte("2")); err != nil {
		t.Fatal(err)
	}
	for _, f := range waitFrames(t, b, 1) {
		if f.Kind != "two" {
			t.Fatalf("delivered %q frame from %s", f.Kind, f.From)
		}
	}
	if got := b.Metrics().Counter("transport.frames_received").Value(); got != 2 {
		t.Fatalf("frames_received = %d, want 2", got)
	}
}

// TestMulticastOneBodyOneCounter: every recipient of a multicast sees
// the same counter, the next multicast the next one, and a node that
// lists itself gets its copy without the network.
func TestMulticastOneBodyOneCounter(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 3)
	eps := endpoints(t, d, "governor/0", "governor/1", "governor/2")
	all := []identity.NodeID{"governor/0", "governor/1", "governor/2"}
	for round := uint64(1); round <= 2; round++ {
		if err := eps[0].Multicast(all, "k", []byte("x")); err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps {
			f := waitFrames(t, ep, 1)[0]
			if f.From != "governor/0" || f.Counter != round || string(f.Payload) != "x" {
				t.Fatalf("%s got %+v in multicast %d", ep.ID(), f, round)
			}
		}
	}
	if got := eps[0].Metrics().Counter("transport.frames_sent").Value(); got != 4 {
		t.Fatalf("frames_sent = %d, want 4 (two remote recipients, twice)", got)
	}
}

// FuzzFrameReceive feeds raw bytes to the receive path. It must never
// panic, and whatever it accepts must carry a tag that verifies under
// the claimed sender's key as derived independently of the endpoint.
func FuzzFrameReceive(f *testing.F) {
	d := testDeployment(f, 2, 2, 1, 3)
	eps := endpoints(f, d, "governor/0", "governor/1")
	a, b := eps[0], eps[1]
	for _, fr := range authFrames {
		f.Add(sealed(f, a, "governor/1", fr))
	}
	f.Add([]byte{})
	f.Add(sealed(f, b, "governor/0", Frame{From: "governor/1", Kind: "k", Counter: 1}))
	keys := map[identity.NodeID][]byte{}
	for id := range b.peers {
		keys[id] = frameKey(f, d, string(id), "governor/1")
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, p := range b.peers {
			p.lastCtr = 0
		}
		got, reason := b.open(raw)
		if reason != "" {
			return
		}
		key, ok := keys[got.From]
		if !ok {
			t.Fatalf("accepted a frame from %q", got.From)
		}
		body, tag := raw[:len(raw)-tagSize], raw[len(raw)-tagSize:]
		if !hmac.Equal(tagOf(hmac.New(sha256.New, key), body), tag) {
			t.Fatalf("accepted a frame from %q whose tag does not verify", got.From)
		}
		if got.Counter == 0 || b.peers[got.From].lastCtr != got.Counter {
			t.Fatalf("accepted counter %d, replay state %d", got.Counter, b.peers[got.From].lastCtr)
		}
	})
}
