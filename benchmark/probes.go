package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/mempool"
	"repchain/internal/network"
	"repchain/internal/reputation"
	"repchain/internal/rwm"
	"repchain/internal/transport"
	"repchain/internal/tx"
)

// Layer probes: a few hundred calls of each layer's primary public
// entry point, on inputs shaped like the workload (its payload size, r,
// m and block size B). They run after the workload, off its clock, with
// fixed iteration counts so a probe costs the same work on every run.
// A probe that cannot run leaves its metrics absent; it never fails the
// workload.

// nsPer runs f n times and returns the mean nanoseconds per call,
// keeping the fraction: the cheapest calls take tens of nanoseconds.
func nsPer(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// timePer is nsPer as a duration.
func timePer(n int, f func(i int)) time.Duration { return time.Duration(nsPer(n, f)) }

// runProbes fills the probe metrics into res.PerLayer, each layer under
// a probe.<layer> span.
func runProbes(s spec, o options, rec *recorder, res *result) {
	trace := s.name + "/probes"
	rng := rand.New(rand.NewSource(o.seed ^ 0x70726f6265)) // "probe": a stream apart from the workload's
	for _, pr := range []struct {
		layer string
		run   func(spec, options, *rand.Rand, map[string]float64) error
	}{
		{"crypto", probeCrypto},
		{"tx", probeTx},
		{"mempool", probeMempool},
		{"network", probeNetwork},
		{"transport", probeTransport},
		{"reputation", probeReputation},
		{"consensus", probeConsensus},
		{"ledger", probeLedger},
	} {
		sp := rec.start("probe."+pr.layer, trace, 0)
		if err := pr.run(s, o, rng, res.PerLayer); err != nil {
			fmt.Fprintf(os.Stderr, "%s: probe %s: %v\n", s.name, pr.layer, err)
		}
		rec.end(sp)
	}
}

func probeKey(rng *rand.Rand) (crypto.PublicKey, crypto.PrivateKey, error) {
	seed := make([]byte, crypto.SeedSize)
	rng.Read(seed)
	return crypto.KeyFromSeed(seed)
}

// probeTxs signs n transactions shaped like the workload's.
func probeTxs(rng *rand.Rand, key crypto.PrivateKey, n int) []tx.SignedTx {
	out := make([]tx.SignedTx, n)
	for i := range out {
		p := make([]byte, payloadSize)
		rng.Read(p)
		out[i] = tx.Sign(tx.Transaction{
			Provider: identity.MakeNodeID(identity.RoleProvider, 0),
			Seq:      uint64(i + 1), Timestamp: int64(i), Kind: txKind, Payload: p,
		}, key)
	}
	return out
}

func probeCrypto(s spec, _ options, rng *rand.Rand, p map[string]float64) error {
	pub, priv, err := probeKey(rng)
	if err != nil {
		return err
	}
	const n = 256 // the batch size verify_batch_us_per_sig is defined at
	signed := probeTxs(rng, priv, n)
	msgs, sigs := make([][]byte, n), make([][]byte, n)
	for i, st := range signed {
		msgs[i] = st.Tx.SigningBytes()
	}
	p["crypto.sign_us"] = us(timePer(n, func(i int) { sigs[i] = priv.Sign(msgs[i]) }))
	var bad error
	p["crypto.verify_us"] = us(timePer(n, func(i int) {
		if err := pub.Verify(msgs[i], sigs[i]); err != nil {
			bad = err
		}
	}))
	if bad != nil {
		return fmt.Errorf("verify: %w", bad)
	}
	// Cold cache: these messages are new to the process-wide sigcache.
	items := make([]crypto.BatchItem, n)
	for i := range items {
		items[i] = crypto.BatchItem{Pub: pub, Msg: msgs[i], Sig: sigs[i]}
	}
	t0 := time.Now()
	verdicts := crypto.VerifyBatch(items)
	p["crypto.verify_batch_us_per_sig"] = us(time.Since(t0)) / n
	for _, v := range verdicts {
		if v != nil {
			return fmt.Errorf("verify batch: %w", v)
		}
	}

	leaves := make([][]byte, s.txPerRound)
	for i := range leaves {
		leaves[i] = signed[i%n].EncodeBytes()
	}
	var root crypto.Hash
	per := timePer(20, func(int) { root = crypto.MerkleRoot(leaves) })
	p["crypto.merkle_us_per_leaf"] = us(per) / float64(len(leaves))
	if root.IsZero() {
		return fmt.Errorf("merkle root is zero")
	}

	p["crypto.vrf_tickets_us"] = us(timePer(100, func(i int) {
		alpha := crypto.VRFAlpha(root, uint64(i), 0, 0)
		if err := crypto.VRFVerify(pub, alpha, crypto.VRFEval(priv, alpha)); err != nil {
			bad = err
		}
	}))
	return bad
}

func probeTx(_ spec, _ options, rng *rand.Rand, p map[string]float64) error {
	_, priv, err := probeKey(rng)
	if err != nil {
		return err
	}
	const n = 200
	base := probeTxs(rng, priv, n)
	signed := make([]tx.SignedTx, n)
	p["tx.sign_us"] = us(timePer(n, func(i int) { signed[i] = tx.Sign(base[i].Tx, priv) }))
	collector := identity.MakeNodeID(identity.RoleCollector, 0)
	var bad error
	p["tx.label_sign_us"] = us(timePer(n, func(i int) {
		if _, err := tx.SignLabel(signed[i], tx.LabelValid, collector, priv); err != nil {
			bad = err
		}
	}))
	enc := make([][]byte, n)
	for i := range enc {
		enc[i] = signed[i].EncodeBytes()
	}
	p["tx.decode_us"] = us(timePer(10*n, func(i int) {
		if _, err := tx.DecodeSignedTxBytes(enc[i%n]); err != nil {
			bad = err
		}
	}))
	return bad
}

func probeMempool(s spec, _ options, _ *rand.Rand, p map[string]float64) error {
	pool := mempool.New[int](s.l, 0)
	const reps = 50
	drained := 0
	per := timePer(reps, func(int) {
		for i := 0; i < s.txPerRound; i++ {
			if _, err := pool.Add(i%s.l, i); err != nil {
				return
			}
		}
		drained += len(pool.Drain(0))
	})
	if drained != reps*s.txPerRound {
		return fmt.Errorf("drained %d of %d", drained, reps*s.txPerRound)
	}
	p["mempool.push_drain_ns_per_tx"] = float64(per) / float64(s.txPerRound)
	return nil
}

func probeNetwork(s spec, _ options, rng *rand.Rand, p map[string]float64) error {
	bus := network.NewBus(1)
	defer bus.Close()
	from, to := identity.MakeNodeID(identity.RoleProvider, 0), identity.MakeNodeID(identity.RoleCollector, 0)
	if _, err := bus.Register(from); err != nil {
		return err
	}
	ep, err := bus.Register(to)
	if err != nil {
		return err
	}
	payload := make([]byte, payloadSize+100) // a signed transaction's encoding
	rng.Read(payload)
	const reps = 20
	delivered := 0
	per := timePer(reps, func(int) {
		for i := 0; i < s.txPerRound; i++ {
			if err := bus.Send(from, to, network.KindProviderTx, payload); err != nil {
				return
			}
		}
		bus.AdvancePastDelay()
		delivered += len(ep.Receive())
	})
	if delivered != reps*s.txPerRound {
		return fmt.Errorf("delivered %d of %d", delivered, reps*s.txPerRound)
	}
	p["network.deliver_ns_per_msg"] = float64(per) / float64(s.txPerRound)
	return nil
}

// probeTransport times one frame over loopback TCP: from Multicast on
// one endpoint until Receive on the other returns it.
func probeTransport(_ spec, o options, rng *rand.Rand, p map[string]float64) error {
	d, roster, err := loopbackDeployment(spec{l: 1, n: 1, r: 1, m: 1}, o.seed^1)
	if err != nil {
		return err
	}
	src, err := transport.NewEndpoint(d, roster.Providers[0].ID)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := transport.NewEndpoint(d, roster.Collectors[0].ID)
	if err != nil {
		return err
	}
	defer dst.Close()
	to := []identity.NodeID{roster.Collectors[0].ID}
	payload := make([]byte, payloadSize+100)
	rng.Read(payload)
	send := func() error {
		if err := src.Multicast(to, network.KindProviderTx, payload); err != nil {
			return err
		}
		// Poll with a short sleep, not a spin: a spinning Receive holds the
		// inbox lock often enough to starve the endpoint's reader.
		for deadline := time.Now().Add(time.Second); len(dst.Receive()) == 0; {
			if time.Now().After(deadline) {
				return fmt.Errorf("frame not received within 1s")
			}
			time.Sleep(10 * time.Microsecond)
		}
		return nil
	}
	if err := send(); err != nil { // dial and first frame, off the clock
		return err
	}
	var bad error
	p["transport.frame_us"] = us(timePer(200, func(int) {
		if err := send(); err != nil {
			bad = err
		}
	}))
	return bad
}

func probeReputation(s spec, _ options, rng *rand.Rand, p map[string]float64) error {
	topo, err := identity.NewRegularTopology(topologySpec(s))
	if err != nil {
		return err
	}
	table, err := reputation.NewTable(topo, reputation.DefaultParams())
	if err != nil {
		return err
	}
	reports := make([]reputation.Report, 0, s.r)
	for i, c := range topo.CollectorsOf(0) {
		label := tx.LabelValid
		if i%2 == 1 {
			label = tx.LabelInvalid // conflicting reports, as under misreporting
		}
		reports = append(reports, reputation.Report{Collector: c, Label: label})
	}
	var bad error
	p["reputation.update_ns"] = nsPer(20000, func(int) {
		if err := table.RecordChecked(0, reports, tx.StatusValid); err != nil {
			bad = err
		}
	})
	if bad != nil {
		return bad
	}
	in, err := rwm.New(s.r, reputation.DefaultParams().Beta)
	if err != nil {
		return err
	}
	participants := make([]int, s.r)
	for i := range participants {
		participants[i] = i
	}
	p["rwm.draw_ns"] = nsPer(100000, func(int) {
		if _, _, err := in.Pick(rng, participants); err != nil {
			bad = err
		}
	})
	return bad
}

// probeConsensus times one leader election at the workload's m: every
// governor's tickets, their verification, and the winner.
func probeConsensus(s spec, _ options, rng *rand.Rand, p map[string]float64) error {
	pubs, privs := make([]crypto.PublicKey, s.m), make([]crypto.PrivateKey, s.m)
	stakes := make([]uint64, s.m)
	for j := range pubs {
		var err error
		if pubs[j], privs[j], err = probeKey(rng); err != nil {
			return err
		}
		stakes[j] = 1
	}
	prev := crypto.Sum([]byte("probe"))
	var bad error
	p["consensus.elect_us"] = us(timePer(50, func(i int) {
		round := uint64(i + 1)
		el, err := consensus.NewElection(round, prev, pubs, stakes)
		if err != nil {
			bad = err
			return
		}
		for j := range pubs {
			if err := el.Submit(j, consensus.MakeTickets(privs[j], prev, round, j, stakes[j])); err != nil {
				bad = err
				return
			}
		}
		if _, _, err := el.Leader(); err != nil {
			bad = err
		}
	}))
	return bad
}

// probeLedger appends blocks of the workload's size to a file store
// with the durable workload's segment size, then writes snapshots.
func probeLedger(s spec, o options, rng *rand.Rand, p map[string]float64) error {
	dir, err := os.MkdirTemp(o.outDir, "probe-ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := ledger.OpenFileStoreOptions(filepath.Join(dir, "probe.chain"), ledger.StoreOptions{SegmentBytes: 64 << 10})
	if err != nil {
		return err
	}
	defer fs.Close()
	_, priv, err := probeKey(rng)
	if err != nil {
		return err
	}
	records := make([]ledger.Record, s.txPerRound)
	for i, st := range probeTxs(rng, priv, len(records)) {
		records[i] = ledger.Record{Signed: st, Label: tx.LabelValid, Status: tx.StatusValid}
	}
	proposer := identity.MakeNodeID(identity.RoleGovernor, 0)
	const blocks = 50
	chain := make([]ledger.Block, blocks)
	var prev *ledger.Block
	for i := range chain {
		b, err := ledger.NewBlock(prev, records, 0)
		if err != nil {
			return err
		}
		b.SignAs(proposer, priv)
		chain[i] = b
		prev = &chain[i]
	}
	var bad error
	p["ledger.append_us_per_block"] = us(timePer(blocks, func(i int) {
		if err := fs.Append(chain[i]); err != nil {
			bad = err
		}
	}))
	if bad != nil {
		return bad
	}
	app := make([]byte, 1024) // about a governor's reputation table and stake vector
	rng.Read(app)
	p["ledger.snapshot_ms"] = ms(timePer(5, func(int) {
		if _, err := fs.WriteSnapshot(app); err != nil {
			bad = err
		}
	}))
	return bad
}
