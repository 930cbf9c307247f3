package transport

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repchain/internal/codec"
	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/tx"
)

// TestFrameWireLayout pins the envelope: a big-endian length, the body
// fields in order with the trace section only when there is one, then
// HMAC-SHA256 over exactly the body under the sender→recipient key.
func TestFrameWireLayout(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	a := endpoints(t, d, "governor/0")[0]
	key := frameKey(t, d, "governor/0", "governor/1")
	for name, f := range authFrames {
		body := &codec.Encoder{}
		body.PutString(string(f.From))
		body.PutString(f.Kind)
		body.PutBytes(f.Payload)
		body.PutUint64(f.Counter)
		if f.Trace != nil {
			body.PutString(f.Trace.Trace)
			body.PutUint64(f.Trace.Parent)
			body.PutVarint(f.Trace.SentNS)
		}
		want := binary.BigEndian.AppendUint32(nil, uint32(body.Len()+sha256.Size))
		want = append(want, body.Bytes()...)
		want = append(want, tagOf(hmac.New(sha256.New, key), body.Bytes())...)

		e := encodeWire(f)
		a.peers["governor/1"].seal(e.Bytes())
		if got := e.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("%s frame on the wire:\n got %x\nwant %x", name, got, want)
		}
		e.Release()
	}
}

// TestTraceContextTamperEvident: the trace context rides under the
// tag, so a middlebox can neither strip it, inject one, nor edit it.
// Each attempt keeps the original tag, the best a party without the
// key can do.
func TestTraceContextTamperEvident(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	eps := endpoints(t, d, "governor/0", "governor/1")
	a, b := eps[0], eps[1]
	plain, traced := authFrames["plain"], authFrames["traced"]
	rawPlain := sealed(t, a, "governor/1", plain)
	rawTraced := sealed(t, a, "governor/1", traced)
	retag := func(f Frame, tagFrom []byte) []byte {
		e := encodeWire(f)
		defer e.Release()
		return append(bytes.Clone(e.Bytes()[lenSize:e.Len()-tagSize]), tagFrom[len(tagFrom)-tagSize:]...)
	}
	edited := traced
	edited.Trace = &TraceCtx{Trace: traced.Trace.Trace, Parent: traced.Trace.Parent, SentNS: traced.Trace.SentNS + 1}
	for name, raw := range map[string][]byte{
		"stripped": retag(plain, rawTraced),
		"injected": retag(traced, rawPlain),
		"edited":   retag(edited, rawTraced),
	} {
		if _, reason := b.open(raw); reason != rejectBadTag {
			t.Fatalf("%s trace context: reason %q, want %q", name, reason, rejectBadTag)
		}
	}
	got, reason := b.open(rawTraced)
	if reason != "" || got.Trace == nil || *got.Trace != *traced.Trace {
		t.Fatalf("untouched traced frame: reason %q, context %+v", reason, got.Trace)
	}
}

// TestEndpointTracePropagation sends a traced frame across a real TCP
// hop and checks both halves: the sender's context arrives intact, the
// receiver records a hop.received event naming the sender's hop.sent
// seq as parent with a measured hop latency, and a payload with no
// trace ID carries no trace section.
func TestEndpointTracePropagation(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	a, err := NewEndpoint(d, "governor/0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewEndpoint(d, "governor/1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	const traceID = "deadbeefdeadbeef"
	idOf := func(kind string, payload []byte) string {
		if kind == "traced" {
			return traceID
		}
		return ""
	}
	logA := events.NewLog(16)
	logB := events.NewLog(16)
	a.EnableTracePropagation(logA, idOf)
	b.EnableTracePropagation(logB, idOf)

	if err := a.Send("governor/1", "traced", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("governor/1", "plain", []byte("y")); err != nil {
		t.Fatal(err)
	}
	frames := waitFrames(t, b, 2)
	byKind := map[string]Frame{}
	for _, f := range frames {
		byKind[f.Kind] = f
	}
	traced, ok := byKind["traced"]
	if !ok || traced.Trace == nil {
		t.Fatalf("traced frame missing its context: %+v", traced)
	}
	if traced.Trace.Trace != traceID || traced.Trace.SentNS == 0 {
		t.Fatalf("trace context = %+v", traced.Trace)
	}
	if plain, ok := byKind["plain"]; !ok || plain.Trace != nil {
		t.Fatalf("untraced frame carried a context: %+v", plain.Trace)
	}

	sends := logA.Select(events.Filter{Trace: traceID})
	if len(sends) != 1 || sends[0].Type != events.TypeHopSent {
		t.Fatalf("sender events = %+v", sends)
	}
	if traced.Trace.Parent != sends[0].Seq {
		t.Fatalf("wire parent %d != hop.sent seq %d", traced.Trace.Parent, sends[0].Seq)
	}
	recvs := logB.Select(events.Filter{Trace: traceID})
	if len(recvs) != 1 || recvs[0].Type != events.TypeHopReceived {
		t.Fatalf("receiver events = %+v", recvs)
	}
	recv := recvs[0]
	if recv.Attr("from") != "governor/0" || recv.Attr("kind") != "traced" {
		t.Fatalf("hop.received attrs = %v", recv.Attrs)
	}
	if want := fmt.Sprint(sends[0].Seq); recv.Attr("parent") != want {
		t.Fatalf("hop.received parent %q, want the hop.sent seq %s", recv.Attr("parent"), want)
	}
	for _, k := range []string{"sent_ns", "latency_ns"} {
		if recv.Attr(k) == "" {
			t.Fatalf("hop.received missing %q attr: %v", k, recv.Attrs)
		}
	}
}

// TestEndpointPropagationOff sends with propagation disabled on the
// sender: frames arrive without a context and no events are recorded.
func TestEndpointPropagationOff(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	a, err := NewEndpoint(d, "governor/0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewEndpoint(d, "governor/1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	logB := events.NewLog(16)
	b.EnableTracePropagation(logB, func(string, []byte) string { return "" })

	if err := a.Send("governor/1", "traced", []byte("x")); err != nil {
		t.Fatal(err)
	}
	frames := waitFrames(t, b, 1)
	if frames[0].Trace != nil {
		t.Fatal("propagation-off sender produced a traced frame")
	}
	if got := len(logB.Events()); got != 0 {
		t.Fatalf("receiver recorded %d events for an untraced frame", got)
	}
}

// TestTraceIDOfProviderFrame pins the trace ID the runtime stamps on a
// provider frame: the transaction's ID when the frame carries one, none
// when it carries a batch of several or does not decode.
func TestTraceIDOfProviderFrame(t *testing.T) {
	prov := mustRoster(t, testDeployment(t, 1, 1, 1, 1)).Providers[0]
	txs := make([]tx.Transaction, 3)
	ids := make([]crypto.Hash, len(txs))
	for i := range txs {
		txs[i] = tx.Transaction{Provider: prov.ID, Seq: uint64(i + 1), Kind: "k", Payload: []byte{1}}
		ids[i] = txs[i].ID()
	}
	signed := tx.SignLeaves(txs, ids, prov.PrivateKey)
	one := tx.SignLeaves(txs[:1], ids[:1], prov.PrivateKey)
	for name, c := range map[string]struct {
		payload []byte
		want    string
	}{
		"one transaction":  {tx.EncodeListBytes(one), one[0].ID().String()},
		"three of a batch": {tx.EncodeListBytes(signed), ""},
		"one of three":     {tx.EncodeListBytes(signed[1:2]), signed[1].ID().String()},
		"undecodable":      {[]byte{0xFF}, ""},
	} {
		if got := node.TraceIDOf(network.KindProviderTx, c.payload); got != c.want {
			t.Errorf("%s: trace ID %q, want %q", name, got, c.want)
		}
	}
}
