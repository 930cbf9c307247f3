package node

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/network"
	"repchain/internal/tx"
)

// costlyOracle is oracle after a chain of hashes whose length varies
// per transaction, so that validate(tx) calls fanned out across cores
// finish out of order; calls, when non-nil, counts them.
func costlyOracle(calls *atomic.Int64) tx.Validator {
	return tx.ValidatorFunc(func(t tx.Transaction) bool {
		if calls != nil {
			calls.Add(1)
		}
		h := crypto.Sum(t.Payload)
		if len(t.Payload) > 1 {
			for i := 0; i < int(t.Payload[1])%7*40; i++ {
				h = crypto.Sum(h[:])
			}
		}
		return h[0]|1 != 0 && oracle(t)
	})
}

// validatedPerRound is the transactions a validated alliance's provider
// sends each round: enough that each governor's checked draws reach
// validateFloor and that the provider argues.
const validatedPerRound = 112

// validatedAlliance is an alliance whose collector misreports half the
// time and whose governors leave nine in ten -1 draws unchecked, so
// that the provider argues many of its valid transactions, with
// validators from validator(j) for governor j and validator(-1) for the
// collector, all logging to one event log.
func validatedAlliance(t *testing.T, validator func(j int) tx.Validator) *alliance {
	log := events.NewLog(1 << 16)
	a := newAlliance(t, func(j int, cfg *GovernorConfig) {
		cfg.Validator = validator(j)
		cfg.Params.F = 0.9
		cfg.Events = log
	})
	a.log = log
	a.coll.behavior = Behavior{Misreport: 0.5}
	a.coll.validator = validator(-1)
	a.coll.SetEvents(log)
	return a
}

// runValidated runs a validated alliance for rounds lock-step rounds
// and returns the most argues the provider drew in one of them.
func (a *alliance) runValidated(rounds int) (maxArgues int) {
	a.t.Helper()
	for r := 0; r < rounds; r++ {
		a.submit(a.round+1, validatedPerRound)
		a.open()
		a.propose(a.elect(0, 1, 2))
		maxArgues = max(maxArgues, a.argue(a.at(DeadlineElect), false))
		a.stake()
		a.end()
	}
	return maxArgues
}

// validatedOutcome is what a validated alliance's run leaves behind.
type validatedOutcome struct {
	heads, tables, stats []string
	collector            string
	events               map[string]string // each node's event subsequence
}

func runValidatedAt(t *testing.T, procs int) validatedOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	a := validatedAlliance(t, func(int) tx.Validator { return costlyOracle(nil) })
	const rounds = 6
	if a.runValidated(rounds) == 0 {
		t.Fatal("no argues drawn: the run does not exercise the argue pass")
	}
	out := validatedOutcome{collector: fmt.Sprintf("%+v", a.coll.Stats()), events: make(map[string]string)}
	for _, g := range a.govs {
		st := g.Stats()
		if st.Checked < rounds*validateFloor {
			t.Fatalf("%s checked %d transactions in %d rounds: screening never reaches validateFloor %d", g.ID(), st.Checked, rounds, validateFloor)
		}
		out.heads = append(out.heads, fmt.Sprintf("%d %s", g.Store().Height(), g.Store().HeadHash()))
		out.tables = append(out.tables, string(g.Table().Snapshot()))
		out.stats = append(out.stats, fmt.Sprintf("%+v", st))
	}
	if a.log.Dropped() != 0 {
		t.Fatalf("event log dropped %d events", a.log.Dropped())
	}
	for _, e := range a.log.Events() {
		var b strings.Builder
		fmt.Fprintf(&b, "%s|%s|%d", e.Type, e.Trace, e.Round)
		for _, at := range e.Attrs {
			fmt.Fprintf(&b, "|%s=%s", at.Key, at.Value)
		}
		out.events[e.Node] += b.String() + "\n"
	}
	return out
}

// TestValidateFanOutKeepsOrder: fanning validate(tx) out across cores
// changes nothing a governor does with the verdicts. An alliance whose
// validator costs a different amount per transaction — so calls made
// together finish out of order — runs at GOMAXPROCS 1 and 4, its
// governors' checked draws past validateFloor a pass and its provider
// arguing, and commits the same chain, reputation tables,
// governor and collector counters and per-node event streams at both.
func TestValidateFanOutKeepsOrder(t *testing.T) {
	one, four := runValidatedAt(t, 1), runValidatedAt(t, 4)
	for j := range one.heads {
		if one.heads[j] != four.heads[j] {
			t.Fatalf("governor %d chain: %s at GOMAXPROCS 1, %s at 4", j, one.heads[j], four.heads[j])
		}
		if one.tables[j] != four.tables[j] {
			t.Fatalf("governor %d reputation snapshot differs across GOMAXPROCS", j)
		}
		if one.stats[j] != four.stats[j] {
			t.Fatalf("governor %d stats: %s at GOMAXPROCS 1, %s at 4", j, one.stats[j], four.stats[j])
		}
	}
	if one.collector != four.collector {
		t.Fatalf("collector stats: %s at GOMAXPROCS 1, %s at 4", one.collector, four.collector)
	}
	if len(one.events) != len(four.events) || len(one.events) < 4 {
		t.Fatalf("%d nodes logged at GOMAXPROCS 1, %d at 4", len(one.events), len(four.events))
	}
	for node, evs := range one.events {
		if four.events[node] != evs {
			t.Fatalf("%s's event stream differs across GOMAXPROCS", node)
		}
	}
}

// TestValidateCallCounts: validate(tx) runs exactly once per labelled
// transaction on a collector, and on a governor once per checked draw
// and once per processed argue — never for an unchecked draw, nor for a
// repeated argue.
func TestValidateCallCounts(t *testing.T) {
	var coll atomic.Int64
	govs := make([]atomic.Int64, 3)
	a := validatedAlliance(t, func(j int) tx.Validator {
		if j < 0 {
			return costlyOracle(&coll)
		}
		return costlyOracle(&govs[j])
	})
	a.runValidated(3)
	// Every argue delivered twice: the repeat is refused unvalidated.
	a.submit(a.round+1, validatedPerRound)
	a.open()
	a.propose(a.elect(0, 1, 2))
	if a.argue(a.at(DeadlineElect), false) == 0 {
		t.Fatal("no argues drawn: the run does not exercise the argue pass")
	}
	for j := range a.inboxes {
		msgs := a.inboxes[j].Receive()
		for _, m := range msgs {
			if m.Kind == network.KindArgue {
				msgs = append(msgs, m)
			}
		}
		a.check(a.govs[j].Ingest(msgs))
	}
	a.stake()
	a.end()
	a.runValidated(1)

	st := a.coll.Stats()
	if labelled := int64(st.Received - st.Discarded); coll.Load() != labelled || labelled == 0 {
		t.Fatalf("collector validated %d times for %d labelled transactions", coll.Load(), labelled)
	}
	for j, g := range a.govs {
		st := g.Stats()
		want := int64(st.Checked + len(g.processedArgues))
		if govs[j].Load() != want || st.Unchecked == 0 || len(g.processedArgues) == 0 {
			t.Fatalf("governor %d validated %d times for %d checked draws and %d processed argues (%d unchecked)",
				j, govs[j].Load(), st.Checked, len(g.processedArgues), st.Unchecked)
		}
	}
}

// BenchmarkScreenRound is one governor's screening of a round of the
// steady shape (256 transactions, r = 2) under a validator costing
// about 200 hashes, so nearly all its time is validate(tx) on the
// checked draws; its procs=1, 2 and 4 runs show the pass's scaling.
func BenchmarkScreenRound(b *testing.B) {
	fx, signed := steadyRound(b)
	var msgs []network.Message
	for c, coll := range fx.roster.Collectors {
		var items []tx.UploadItem
		for _, k := range fx.roster.Topology.ProvidersOf(c) {
			for _, s := range signed[k] {
				items = append(items, tx.UploadItem{Signed: s, Label: tx.LabelFor(oracle, s.Tx)})
			}
		}
		frame, err := tx.SignUploadBatch(coll.ID, 1, items, coll.PrivateKey)
		if err != nil {
			b.Fatal(err)
		}
		msgs = append(msgs, network.Message{From: coll.ID, Kind: network.KindCollectorBatch, Payload: frame})
	}
	cfg := fx.governor.cfg
	cfg.Validator = tx.ValidatorFunc(func(t tx.Transaction) bool {
		h := crypto.Sum(t.Payload)
		for i := 0; i < 200; i++ {
			h = crypto.Sum(h[:])
		}
		return h[0]|1 != 0 && oracle(t)
	})
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gov, err := NewGovernor(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := gov.handleBatch(msgs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				recs, _, err := gov.screenRound()
				if err != nil || len(recs) == 0 {
					b.Fatalf("screenRound() = %d records, %v", len(recs), err)
				}
			}
		})
	}
}
