package transport

import (
	"fmt"
	"testing"
	"time"

	"repchain/internal/identity"
)

// benchPayload is the size of a signed transaction with a small body,
// the frame the deployed path carries most.
const benchPayload = 256

// awaitFrames polls ep until n frames have arrived. The short sleep
// matters: a spinning Receive holds the inbox lock often enough to
// starve the endpoint's reader.
func awaitFrames(b *testing.B, ep *Endpoint, n int) {
	for deadline := time.Now().Add(5 * time.Second); n > 0; {
		n -= len(ep.Receive())
		if n > 0 {
			if time.Now().After(deadline) {
				b.Fatalf("%s: %d frames missing after 5s", ep.ID(), n)
			}
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// benchMulticast times Multicast to m peers over loopback until every
// copy is received: encode, tag, write, read, verify, decode, deliver.
func benchMulticast(b *testing.B, m int) {
	d := testDeployment(b, 1, 1, 1, m+1)
	ids := make([]identity.NodeID, m+1)
	for i := range ids {
		ids[i] = identity.NodeID(fmt.Sprintf("governor/%d", i))
	}
	eps := endpoints(b, d, ids...)
	src, dsts, to := eps[0], eps[1:], ids[1:]
	payload := make([]byte, benchPayload)
	round := func() {
		if err := src.Multicast(to, "bench", payload); err != nil {
			b.Fatal(err)
		}
		for _, dst := range dsts {
			awaitFrames(b, dst, 1)
		}
	}
	round() // dial, off the clock
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/frame")
}

// BenchmarkFrameRoundTrip is one frame to one peer: ns/op, B/op and
// allocs/op are per frame. The time includes one wake-up of the polling
// receiver, which on an otherwise idle process costs more than the
// frame's own work (a 5 µs sleep returns after 50–250 µs), so allocs/op
// is the gate and ns/op is context.
func BenchmarkFrameRoundTrip(b *testing.B) { benchMulticast(b, 1) }

// BenchmarkMulticast is one body to m peers; an op is m frames, and
// ns/frame shows what each recipient after the first adds.
func BenchmarkMulticast(b *testing.B) {
	b.Run("m=3", func(b *testing.B) { benchMulticast(b, 3) })
}
