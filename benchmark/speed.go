package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"math"
	"time"
)

// The scoping box is two cores of a shared host whose speed moves: for
// minutes at a time the same code runs 10–50 % slower, CPU time and wall
// time alike, and every processor-bound metric of every workload moves
// with it. A benchmark that reports those times as read calls a busy host
// a regression. So the harness carries a speedometer: a fixed unit of
// work from Go's standard library alone (nothing of this repository, so
// no change to RepChain can move it), run between rounds off the
// workload's clock. Times that the processor sets are reported at the
// reference speed, block by block (blocks.go): multiplied by
// atReference(host speed, the workload's share). Times that the wall-clock schedule sets (the
// TCP run's latency, goodput and set-up) are reported as read.
// bench.host_speed is the speed itself.

// speedRefUS is what one unit took on the scoping box in a quiet minute;
// host speed 1 means that box, then.
const speedRefUS = 1634.0

// atReference is the factor that puts a time read at the given host
// speed at the reference speed. share (spec.speedShare) is how much of
// the unit's slowdown the workload's times share: the unit is dense
// arithmetic and feels a contended core in full; a workload also waits
// on memory, the scheduler and the kernel, which do not slow with it.
func atReference(speed, share float64) float64 { return math.Pow(speed, share) }

// speedEvery is how often the closed-loop runner reads the speed: after
// every round that ends this long or longer after the last reading.
const speedEvery = 50 * time.Millisecond

// speedUnit is the unit of work: 32 Ed25519 verifications of 128-byte
// messages (the workloads' own dominant cost, from crypto/ed25519
// directly) and one SHA-256 of 64 KiB.
type speedUnit struct {
	pub  ed25519.PublicKey
	msgs [][]byte
	sigs [][]byte
	buf  []byte
	sink byte
}

func newSpeedUnit() *speedUnit {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	u := &speedUnit{pub: priv.Public().(ed25519.PublicKey), buf: make([]byte, 64<<10)}
	for i := 0; i < 32; i++ {
		m := make([]byte, 128)
		m[0] = byte(i)
		u.msgs = append(u.msgs, m)
		u.sigs = append(u.sigs, ed25519.Sign(priv, m))
	}
	return u
}

func (u *speedUnit) run() {
	for i, m := range u.msgs {
		if !ed25519.Verify(u.pub, m, u.sigs[i]) {
			panic("benchmark: speed unit: a good signature failed to verify")
		}
	}
	h := sha256.Sum256(u.buf)
	u.sink ^= h[0]
}

// speedometer runs the unit at most once per every and remembers how
// long the units took. It is used from one goroutine.
type speedometer struct {
	unit  *speedUnit
	every time.Duration
	last  time.Time
	us    []float64     // unit times since the last take
	spent time.Duration // wall time of every unit run, to take off set-up and CPU totals
}

func newSpeedometer(every time.Duration) *speedometer {
	return &speedometer{unit: newSpeedUnit(), every: every}
}

// tick runs one unit when the last one is at least every ago.
func (m *speedometer) tick() {
	t0 := time.Now()
	if t0.Sub(m.last) < m.every {
		return
	}
	m.unit.run()
	m.last = time.Now()
	d := m.last.Sub(t0)
	m.spent += d
	m.us = append(m.us, us(d))
}

// take returns the host's speed over the units run since the last take
// (reference unit time ÷ their median; 1 when there were none) and
// starts afresh.
func (m *speedometer) take() float64 {
	speed := 1.0
	if len(m.us) > 0 {
		speed = speedRefUS / median(m.us)
	}
	m.us = m.us[:0]
	return speed
}
