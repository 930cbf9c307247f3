package transport

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repchain/internal/identity"
)

func TestBackoffCapsExponentialGrowth(t *testing.T) {
	p := retryPolicy{baseBackoff: 10 * time.Millisecond, maxBackoff: 45 * time.Millisecond}
	wants := []time.Duration{
		0,                     // retry 0: no pause
		10 * time.Millisecond, // 10ms
		20 * time.Millisecond, // 20ms
		40 * time.Millisecond, // 40ms
		45 * time.Millisecond, // capped
		45 * time.Millisecond, // stays capped (no overflow)
	}
	for retry, want := range wants {
		if got := p.backoff(retry); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", retry, got, want)
		}
	}
	// A pathological retry count must not overflow past the cap.
	if got := p.backoff(200); got != 45*time.Millisecond {
		t.Fatalf("backoff(200) = %v, want cap", got)
	}
}

// TestSendRetriesDeadPeer: a peer that never listens costs exactly
// maxAttempts dials and one send failure, and the call returns instead
// of wedging.
func TestSendRetriesDeadPeer(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	ep, err := NewEndpoint(d, identity.NodeID("provider/0"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()
	ep.policy = retryPolicy{
		maxAttempts:  3,
		baseBackoff:  time.Millisecond,
		maxBackoff:   2 * time.Millisecond,
		dialTimeout:  time.Second,
		writeTimeout: time.Second,
	}

	// collector/0 exists in the deployment but never started.
	err = ep.Send(identity.NodeID("collector/0"), "test/kind", []byte("x"))
	if err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error %q does not name the attempt budget", err)
	}
	m := ep.Metrics()
	if got := m.Counter("transport.dials").Value(); got != 3 {
		t.Fatalf("transport.dials = %d, want 3", got)
	}
	if got := m.Counter("transport.retries").Value(); got != 2 {
		t.Fatalf("transport.retries = %d, want 2", got)
	}
	if got := m.Counter("transport.send_failures").Value(); got != 1 {
		t.Fatalf("transport.send_failures = %d, want 1", got)
	}
	if got := m.Counter("transport.frames_sent").Value(); got != 0 {
		t.Fatalf("transport.frames_sent = %d, want 0", got)
	}
}

// TestSendRecoversFlappingPeer: the peer is down for the first attempt
// and comes up before the retries are exhausted; the frame arrives and
// the retry is visible in the metrics.
func TestSendRecoversFlappingPeer(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	sender, err := NewEndpoint(d, identity.NodeID("provider/0"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sender.Close() }()
	sender.policy = retryPolicy{
		maxAttempts:  10,
		baseBackoff:  5 * time.Millisecond,
		maxBackoff:   20 * time.Millisecond,
		dialTimeout:  time.Second,
		writeTimeout: time.Second,
	}

	// Bring the receiver up only after the sender has begun retrying.
	up := make(chan *Endpoint, 1)
	go func() {
		time.Sleep(15 * time.Millisecond)
		rcv, err := NewEndpoint(d, identity.NodeID("collector/0"))
		if err != nil {
			up <- nil
			return
		}
		up <- rcv
	}()
	err = sender.Send(identity.NodeID("collector/0"), "test/kind", []byte("hello"))
	rcv := <-up
	if rcv == nil {
		t.Fatal("receiver endpoint failed to start")
	}
	defer func() { _ = rcv.Close() }()
	if err != nil {
		t.Fatalf("send to flapping peer: %v", err)
	}
	if got := sender.Metrics().Counter("transport.retries").Value(); got == 0 {
		t.Fatal("flapping peer cost no retries")
	}
	if got := sender.Metrics().Counter("transport.frames_sent").Value(); got != 1 {
		t.Fatalf("transport.frames_sent = %d, want 1", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if fs := rcv.Receive(); len(fs) > 0 {
			if string(fs[0].Payload) != "hello" {
				t.Fatalf("payload %q", fs[0].Payload)
			}
			if got := rcv.Metrics().Counter("transport.frames_received").Value(); got != 1 {
				t.Fatalf("transport.frames_received = %d, want 1", got)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("frame never arrived")
}

// TestMulticastBestEffort: a dead recipient in the middle of the list
// must not block delivery to the recipients after it.
func TestMulticastBestEffort(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	sender, err := NewEndpoint(d, identity.NodeID("provider/0"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sender.Close() }()
	sender.policy = retryPolicy{
		maxAttempts:  2,
		baseBackoff:  time.Millisecond,
		maxBackoff:   time.Millisecond,
		dialTimeout:  time.Second,
		writeTimeout: time.Second,
	}
	alive, err := NewEndpoint(d, identity.NodeID("governor/1"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = alive.Close() }()

	targets := []identity.NodeID{"governor/0", "governor/1"} // governor/0 is dead
	err = sender.Multicast(targets, "test/kind", []byte("fanout"))
	if err == nil {
		t.Fatal("multicast with a dead recipient reported success")
	}
	if !strings.Contains(err.Error(), "governor/0") {
		t.Fatalf("joined error %q does not name the dead peer", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if fs := alive.Receive(); len(fs) > 0 {
			if string(fs[0].Payload) != "fanout" {
				t.Fatalf("payload %q", fs[0].Payload)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("live recipient never got the frame despite best-effort multicast")
}

// TestSendClosedEndpointNoRetry: ErrClosed is terminal, not retried.
func TestSendClosedEndpointNoRetry(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	ep, err := NewEndpoint(d, identity.NodeID("provider/0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(identity.NodeID("collector/0"), "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed endpoint = %v, want ErrClosed", err)
	}
	if got := ep.Metrics().Counter("transport.retries").Value(); got != 0 {
		t.Fatalf("closed endpoint retried %d times", got)
	}
}

// TestStaleConnectionRedialedWithinAttempt: a cached connection whose
// peer restarted is replaced by a fresh dial without consuming a
// retry.
func TestStaleConnectionRedialedWithinAttempt(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	sender, err := NewEndpoint(d, identity.NodeID("provider/0"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sender.Close() }()
	rcv, err := NewEndpoint(d, identity.NodeID("collector/0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(rcv.ID(), "k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	// Restart the receiver on the same address: the sender's cached
	// connection is now dead.
	addr := rcv.Addr()
	if err := rcv.Close(); err != nil {
		t.Fatal(err)
	}
	var ln net.Listener
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ln == nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c // sink: accept and hold
		}
	}()
	// Writes into a freshly closed TCP connection may succeed locally
	// (buffered) before the RST arrives; send until the failure is
	// observed or the frame legitimately goes through on a new dial.
	for i := 0; i < 20; i++ {
		if err := sender.Send(identity.NodeID("collector/0"), "k", []byte("two")); err != nil {
			t.Fatalf("send after peer restart: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := sender.Metrics().Counter("transport.send_failures").Value(); got != 0 {
		t.Fatalf("send_failures = %d after stale-connection recovery", got)
	}
}
