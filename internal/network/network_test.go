package network

import (
	"errors"
	"fmt"
	"testing"

	"repchain/internal/identity"
)

func id(i int) identity.NodeID {
	return identity.NodeID(fmt.Sprintf("node/%d", i))
}

func newBusWith(t *testing.T, maxDelay, nodes int) (*Bus, []*Endpoint) {
	t.Helper()
	b := NewBus(maxDelay)
	eps := make([]*Endpoint, nodes)
	for i := range eps {
		ep, err := b.Register(id(i))
		if err != nil {
			t.Fatalf("Register(%d) error = %v", i, err)
		}
		eps[i] = ep
	}
	return b, eps
}

func TestRegisterDuplicate(t *testing.T) {
	b := NewBus(0)
	if _, err := b.Register("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Register("a"); !errors.Is(err, ErrDuplicateEndpoint) {
		t.Fatalf("error = %v, want ErrDuplicateEndpoint", err)
	}
}

func TestSendAndReceive(t *testing.T) {
	b, eps := newBusWith(t, 0, 2)
	if err := b.Send(id(0), id(1), KindProviderTx, []byte("hello")); err != nil {
		t.Fatalf("Send() error = %v", err)
	}
	got := eps[1].Receive()
	if len(got) != 1 {
		t.Fatalf("Receive() returned %d messages, want 1", len(got))
	}
	m := got[0]
	if m.From != id(0) || m.Kind != KindProviderTx || string(m.Payload) != "hello" {
		t.Fatalf("message = %+v", m)
	}
	// Sender got nothing.
	if len(eps[0].Receive()) != 0 {
		t.Fatal("sender received its own unicast")
	}
}

func TestSendUnknownEndpoints(t *testing.T) {
	b, _ := newBusWith(t, 0, 1)
	if err := b.Send("ghost", id(0), "k", nil); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("unknown sender error = %v", err)
	}
	if err := b.Send(id(0), "ghost", "k", nil); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("unknown recipient error = %v", err)
	}
}

func TestClosedBus(t *testing.T) {
	b, _ := newBusWith(t, 0, 2)
	b.Close()
	if err := b.Send(id(0), id(1), "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send() after Close error = %v, want ErrClosed", err)
	}
	if _, err := b.Register("new"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register() after Close error = %v, want ErrClosed", err)
	}
}

func TestTotalOrderBroadcast(t *testing.T) {
	// The atomic-broadcast property: all recipients see the same
	// relative order of any two delivered messages, regardless of
	// sender interleaving.
	b, eps := newBusWith(t, 0, 4)
	recipients := []identity.NodeID{id(1), id(2), id(3)}
	const rounds = 50
	for i := 0; i < rounds; i++ {
		from := id(i % 2) // two interleaved senders (0 and 1)
		payload := []byte{byte(i)}
		if err := b.Multicast(from, recipients, KindCollectorBatch, payload); err != nil {
			t.Fatal(err)
		}
	}
	var orders [][]byte
	for _, epIdx := range []int{1, 2, 3} {
		msgs := eps[epIdx].Receive()
		order := make([]byte, 0, len(msgs))
		for _, m := range msgs {
			order = append(order, m.Payload[0])
		}
		orders = append(orders, order)
	}
	for i := 1; i < len(orders); i++ {
		if len(orders[i]) != len(orders[0]) {
			t.Fatalf("recipient %d delivered %d messages, recipient 0 delivered %d",
				i, len(orders[i]), len(orders[0]))
		}
		for j := range orders[i] {
			if orders[i][j] != orders[0][j] {
				t.Fatalf("recipients disagree on delivery order at position %d", j)
			}
		}
	}
}

func TestFIFOPerSender(t *testing.T) {
	b, eps := newBusWith(t, 0, 2)
	for i := 0; i < 20; i++ {
		if err := b.Send(id(0), id(1), "k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	msgs := eps[1].Receive()
	if len(msgs) != 20 {
		t.Fatalf("got %d messages", len(msgs))
	}
	for i, m := range msgs {
		if m.Payload[0] != byte(i) {
			t.Fatalf("position %d has payload %d: FIFO violated", i, m.Payload[0])
		}
	}
}

func TestDelayedDelivery(t *testing.T) {
	b, eps := newBusWith(t, 5, 2)
	b.SetDelayFunc(func(m Message, to identity.NodeID) int { return 3 })
	if err := b.Send(id(0), id(1), "k", nil); err != nil {
		t.Fatal(err)
	}
	// Not yet deliverable.
	if got := eps[1].Receive(); len(got) != 0 {
		t.Fatalf("message delivered %d ticks early", 3)
	}
	if eps[1].Pending() != 1 {
		t.Fatal("message lost from queue")
	}
	b.Tick()
	b.Tick()
	if got := eps[1].Receive(); len(got) != 0 {
		t.Fatal("message delivered one tick early")
	}
	b.Tick()
	if got := eps[1].Receive(); len(got) != 1 {
		t.Fatal("message not delivered at its tick")
	}
}

func TestDelayClampedToMaxDelay(t *testing.T) {
	b, eps := newBusWith(t, 2, 2)
	b.SetDelayFunc(func(m Message, to identity.NodeID) int { return 1000 })
	if err := b.Send(id(0), id(1), "k", nil); err != nil {
		t.Fatal(err)
	}
	b.AdvancePastDelay()
	if got := eps[1].Receive(); len(got) != 1 {
		t.Fatal("message not deliverable after AdvancePastDelay: synchrony bound violated")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	b, eps := newBusWith(t, 2, 2)
	b.SetDelayFunc(func(m Message, to identity.NodeID) int { return -7 })
	if err := b.Send(id(0), id(1), "k", nil); err != nil {
		t.Fatal(err)
	}
	if got := eps[1].Receive(); len(got) != 1 {
		t.Fatal("negative delay should deliver immediately")
	}
}

func TestDropFunc(t *testing.T) {
	b, eps := newBusWith(t, 0, 3)
	b.SetDropFunc(func(m Message, to identity.NodeID) bool { return to == id(2) })
	if err := b.Multicast(id(0), []identity.NodeID{id(1), id(2)}, "k", nil); err != nil {
		t.Fatal(err)
	}
	if len(eps[1].Receive()) != 1 {
		t.Fatal("non-dropped recipient missed message")
	}
	if len(eps[2].Receive()) != 0 {
		t.Fatal("dropped recipient received message")
	}
	st := b.Stats()
	if st.Sent != 2 || st.Delivered != 1 || st.Dropped != 1 {
		t.Fatalf("Stats() = %+v", st)
	}
}

func TestStatsAndReset(t *testing.T) {
	b, eps := newBusWith(t, 0, 2)
	for i := 0; i < 5; i++ {
		if err := b.Send(id(0), id(1), "k", nil); err != nil {
			t.Fatal(err)
		}
	}
	eps[1].Receive()
	if st := b.Stats(); st.Sent != 5 || st.Delivered != 5 {
		t.Fatalf("Stats() = %+v", st)
	}
	b.ResetStats()
	if st := b.Stats(); st.Sent != 0 || st.Delivered != 0 {
		t.Fatalf("Stats() after reset = %+v", st)
	}
}

func TestPartialDrainPreservesOrder(t *testing.T) {
	// Messages with mixed delays must still deliver in sequence order
	// within each Receive call.
	b, eps := newBusWith(t, 10, 2)
	delays := []int{0, 2, 0, 2, 0}
	i := 0
	b.SetDelayFunc(func(m Message, to identity.NodeID) int {
		d := delays[i%len(delays)]
		i++
		return d
	})
	for j := 0; j < 5; j++ {
		if err := b.Send(id(0), id(1), "k", []byte{byte(j)}); err != nil {
			t.Fatal(err)
		}
	}
	first := eps[1].Receive() // delay-0 messages: 0, 2, 4
	if len(first) != 3 {
		t.Fatalf("first drain = %d messages, want 3", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i].Seq < first[i-1].Seq {
			t.Fatal("sequence order violated in drain")
		}
	}
	b.AdvancePastDelay()
	second := eps[1].Receive()
	if len(second) != 2 {
		t.Fatalf("second drain = %d messages, want 2", len(second))
	}
}

func BenchmarkMulticast16(b *testing.B) {
	bus := NewBus(0)
	recipients := make([]identity.NodeID, 16)
	for i := range recipients {
		nid := id(i)
		if _, err := bus.Register(nid); err != nil {
			b.Fatal(err)
		}
		recipients[i] = nid
	}
	sender := identity.NodeID("sender")
	if _, err := bus.Register(sender); err != nil {
		b.Fatal(err)
	}
	payload := []byte("payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bus.Multicast(sender, recipients, "k", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestInflightLimitDropsNewest(t *testing.T) {
	b, eps := newBusWith(t, 0, 2)
	b.SetInflightLimit(2)
	for i := 0; i < 4; i++ {
		if err := b.Send(id(0), id(1), "k", []byte{byte(i)}); err != nil {
			t.Fatalf("Send(%d) error = %v", i, err)
		}
	}
	if got := b.Stats().InflightDropped; got != 2 {
		t.Fatalf("InflightDropped = %d, want 2", got)
	}
	msgs := eps[1].Receive()
	if len(msgs) != 2 {
		t.Fatalf("Receive() returned %d messages, want the 2 oldest", len(msgs))
	}
	// The oldest messages survive; the newest are shed.
	if msgs[0].Payload[0] != 0 || msgs[1].Payload[0] != 1 {
		t.Fatalf("surviving payloads %d, %d, want 0, 1", msgs[0].Payload[0], msgs[1].Payload[0])
	}
	// Draining frees the queue for new sends.
	if err := b.Send(id(0), id(1), "k", []byte{9}); err != nil {
		t.Fatal(err)
	}
	if got := eps[1].Receive(); len(got) != 1 || got[0].Payload[0] != 9 {
		t.Fatalf("post-drain Receive() = %v", got)
	}
	// Zero disables the cap again.
	b.SetInflightLimit(0)
	for i := 0; i < 10; i++ {
		if err := b.Send(id(0), id(1), "k", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Stats().InflightDropped; got != 2 {
		t.Fatalf("InflightDropped moved to %d with cap disabled", got)
	}
}
