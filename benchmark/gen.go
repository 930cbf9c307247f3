package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"

	"repchain"
)

// payloadSize is the size of every generated payload. The first byte
// is the ground truth (1 valid, 0 invalid), the next eight a running
// number that makes each payload unique within a run, the rest seeded
// noise.
const payloadSize = 64

// txKind is the application kind of every generated transaction.
const txKind = "bench/tx"

// generator is the seeded payload stream: the same seed yields the
// same sequence of (payload, validity, cross) draws.
type generator struct {
	rng        *rand.Rand
	n          uint64
	validShare float64
	crossShare float64
}

func newGenerator(seed int64, validShare, crossShare float64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), validShare: validShare, crossShare: crossShare}
}

// next draws one transaction. cross reports whether it should be sent
// to another committee (always false when crossShare is 0).
func (g *generator) next() (t repchain.Tx, cross bool) {
	valid := g.rng.Float64() < g.validShare
	if g.crossShare > 0 {
		cross = g.rng.Float64() < g.crossShare
	}
	p := make([]byte, payloadSize)
	if valid {
		p[0] = 1
	}
	g.n++
	binary.BigEndian.PutUint64(p[1:9], g.n)
	g.rng.Read(p[9:])
	return repchain.Tx{Kind: txKind, Payload: p, Valid: valid}, cross
}

// batch is one provider's submissions for one round.
type batch struct {
	provider int
	txs      []repchain.Tx
	// crossTo[i] is the destination provider of txs[i], or -1; nil when
	// the workload has no cross-committee traffic.
	crossTo []int
}

// round draws perProvider transactions for each of providers providers.
func (g *generator) round(providers, perProvider int) []batch {
	out := make([]batch, providers)
	for k := range out {
		b := batch{provider: k, txs: make([]repchain.Tx, perProvider)}
		if g.crossShare > 0 {
			b.crossTo = make([]int, perProvider)
		}
		for i := range b.txs {
			t, cross := g.next()
			b.txs[i] = t
			if b.crossTo != nil {
				b.crossTo[i] = -1
				if cross {
					// The next provider lives on another committee under
					// the default modulo partition.
					b.crossTo[i] = (k + 1) % providers
				}
			}
		}
		out[k] = b
	}
	return out
}

// trivialValidator is validate(tx) at negligible cost: the payload's
// first byte is the truth.
var trivialValidator = repchain.ValidatorFunc(func(t repchain.Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
})

// costlyHashes is the fixed number of chained SHA-256 evaluations the
// costly validator performs (≈50 µs on the scoping box). It is an
// iteration count, never calibrated against the wall clock, so the
// work is identical on every machine and run.
const costlyHashes = 200

// costlyValidator makes validate(tx) expensive enough that skipping it
// (the paper's "larger f ⇒ less validation ⇒ faster") is measurable.
var costlyValidator = repchain.ValidatorFunc(func(t repchain.Transaction) bool {
	h := sha256.Sum256(t.Payload)
	for i := 1; i < costlyHashes; i++ {
		h = sha256.Sum256(h[:])
	}
	// h[0]|1 is never 0: the chain cannot be optimised away, and the
	// verdict still depends only on the payload's first byte.
	return h[0]|1 != 0 && len(t.Payload) > 0 && t.Payload[0] == 1
})
