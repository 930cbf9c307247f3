package node

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repchain/internal/crypto"
	"repchain/internal/network"
	"repchain/internal/tx"
)

// scribbleOutcome is what a governor keeps of its rounds: the records
// each screening yielded, its argue-window entries, the records its
// argues queued, and its reputation snapshot.
type scribbleOutcome struct {
	records, entries, pending [][]byte
	snapshot                  []byte
}

// runScribbled drives a governor through rounds in which lying
// collectors leave transactions unchecked and, every other round, a
// block limit of one carries uploads into later rounds, then argues
// some of the unchecked ones. With scribble set, every upload and argue frame is overwritten
// once its round has ended (the argues', once processed).
func runScribbled(t *testing.T, scribble bool) scribbleOutcome {
	t.Helper()
	fx := newFixtureOpts(t, []Behavior{{Misreport: 1}, {Misreport: 1}}, func(cfg *GovernorConfig) {
		cfg.Params.F = 0.95
		cfg.ArgueWindow = 64
	})
	g := fx.governor
	overwrite := func(msgs []network.Message) {
		for _, m := range msgs {
			if scribble {
				for i := range m.Payload {
					m.Payload[i] = 0xA5
				}
			}
		}
	}
	var out scribbleOutcome
	signed := make(map[crypto.Hash]tx.SignedTx)
	for r := 0; r < 20; r++ {
		for k := range fx.providers {
			s, err := fx.providers[k].Submit("test", []byte{1, byte(r), byte(k)}, true, 0, fx.bus)
			if err != nil {
				t.Fatal(err)
			}
			signed[s.ID()] = s
		}
		for c := range fx.collectors {
			fx.collect(t, c)
		}
		// Odd rounds screen one transaction and carry the rest; even
		// ones screen everything, this round's uploads included.
		g.cfg.BlockLimit = r % 2
		uploads := fx.inbox.Receive()
		if _, err := g.handleBatch(uploads); err != nil {
			t.Fatal(err)
		}
		records, _, err := g.screenRound()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range records {
			out.records = append(out.records, rec.Signed.EncodeBytes())
		}
		g.begin(g.round + 1) // the round ends
		overwrite(uploads)
	}
	// Argue the first three unchecked transactions of provider 0.
	var argues []network.Message
	for _, e := range g.unchecked[0][:3] {
		msg := NewArgue(signed[e.id], 1, fx.roster.Providers[0].PrivateKey)
		argues = append(argues, network.Message{From: fx.roster.Providers[0].ID, Kind: network.KindArgue, Payload: msg.EncodeBytes()})
	}
	if _, err := g.handleBatch(argues); err != nil {
		t.Fatal(err)
	}
	if err := g.processArgues(); err != nil {
		t.Fatal(err)
	}
	overwrite(argues)
	for k := range fx.providers {
		for _, e := range g.unchecked[k] {
			out.entries = append(out.entries, append(bytes.Clone(e.id[:]), e.signed.EncodeBytes()...))
		}
	}
	for _, rec := range g.pendingRecords {
		out.pending = append(out.pending, rec.Signed.EncodeBytes())
	}
	out.snapshot = g.table.Snapshot()
	return out
}

// TestScribbledFramesLeaveGovernorStateUnchanged overwrites each upload
// frame after its round and each argue frame after it was processed: a
// governor copies what it keeps past a round — carried uploads,
// argue-window entries, argued records — so its records, entries,
// pending argue records and reputation come out byte-identical.
func TestScribbledFramesLeaveGovernorStateUnchanged(t *testing.T) {
	want, got := runScribbled(t, false), runScribbled(t, true)
	if len(want.entries) < 3 || len(want.pending) == 0 || len(want.records) == 0 {
		t.Fatalf("%d entries, %d argued records, %d records: the run does not exercise the window", len(want.entries), len(want.pending), len(want.records))
	}
	same := func(name string, a, b [][]byte) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d against %d", name, len(b), len(a))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s %d changed with the overwritten frames", name, i)
			}
		}
	}
	same("record", want.records, got.records)
	same("argue-window entry", want.entries, got.entries)
	same("argued record", want.pending, got.pending)
	if !bytes.Equal(want.snapshot, got.snapshot) {
		t.Fatal("reputation snapshot changed with the overwritten frames")
	}
}

// keptState encodes what governor g keeps past a round, keyed by kind
// and transaction ID: its pending groups, the argue records it carries
// and its argue-window entries, each with its reports.
func keptState(g *Governor) map[string][]byte {
	out := make(map[string][]byte)
	for id, grp := range g.groups {
		out["group "+id.String()] = fmt.Appendf(grp.signed.EncodeBytes(), "%v", grp.reports)
	}
	for i, rec := range g.pendingRecords {
		out["carried "+g.pendingIDs[i].String()] = rec.Signed.EncodeBytes()
	}
	for _, q := range g.unchecked {
		for _, e := range q {
			out["entry "+e.id.String()] = fmt.Appendf(e.signed.EncodeBytes(), "%v", e.reports)
		}
	}
	return out
}

// TestScratchReuseLeavesKeptStateUnchanged drives a governor through
// rounds that carry uploads and argue records across rounds (a block
// limit of one every other round) and fill argue windows (lying
// collectors). Each round decodes its uploads, argues and block into
// the scratch the round before used, and screens into its records
// scratch, emptied when the round ends (DESIGN.md §4f): whatever the
// governor kept from that round — groups, records carried under the
// block limit, argue-window entries — must read the same after the
// intake, after the adoption and after the round's end.
func TestScratchReuseLeavesKeptStateUnchanged(t *testing.T) {
	fx := newFixtureOpts(t, []Behavior{{Misreport: 1}, {Misreport: 1}}, func(cfg *GovernorConfig) {
		cfg.Params.F = 0.95
	})
	g := fx.governor
	signed := make(map[crypto.Hash]tx.SignedTx)
	var kept map[string][]byte
	seen := make(map[string]int) // comparisons by kind
	limited := 0                 // rounds that carried records past the block limit
	same := func(r int, where string) {
		t.Helper()
		for key, got := range keptState(g) {
			if want, ok := kept[key]; ok {
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: %s changed %s", r, key, where)
				}
				seen[strings.Fields(key)[0]]++
			}
		}
	}
	for r := 0; r < 20; r++ {
		for k := range fx.providers {
			for i := 0; i < 3; i++ {
				s, err := fx.providers[k].Submit("test", []byte{1, byte(r), byte(k), byte(i)}, true, 0, fx.bus)
				if err != nil {
					t.Fatal(err)
				}
				signed[s.ID()] = s
			}
		}
		for c := range fx.collectors {
			fx.collect(t, c)
		}
		msgs := fx.inbox.Receive()
		if r%2 == 1 && len(g.unchecked[0]) >= 3 {
			// Three argues a block limit of one carries into later rounds.
			for _, e := range g.unchecked[0][len(g.unchecked[0])-3:] {
				msg := NewArgue(signed[e.id], 1, fx.roster.Providers[0].PrivateKey)
				msgs = append(msgs, network.Message{From: fx.roster.Providers[0].ID, Kind: network.KindArgue, Payload: msg.EncodeBytes()})
			}
		}
		g.cfg.BlockLimit = r % 2
		if _, err := g.handleBatch(msgs); err != nil {
			t.Fatal(err)
		}
		same(r, "when the next intake reused the scratch")
		if err := g.processArgues(); err != nil {
			t.Fatal(err)
		}
		var err error
		if g.records, g.recordIDs, err = g.screenRound(); err != nil {
			t.Fatal(err)
		}
		if g.cfg.BlockLimit > 0 && len(g.pendingRecords) > 0 {
			limited++
		}
		frame, err := g.pack(g.records, g.recordIDs)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AcceptBlock(frame); err != nil { // a redelivery, decoded into the adoption scratch
			t.Fatal(err)
		}
		same(r, "when the next adoption reused the scratch")
		kept = keptState(g)
		g.begin(g.round + 1)
		same(r, "when the round's end emptied the records scratch")
		kept = keptState(g)
	}
	if limited == 0 {
		t.Fatal("no round carried records past its block limit: the run does not exercise the carry")
	}
	for _, kind := range []string{"group", "carried", "entry"} {
		if seen[kind] == 0 {
			t.Fatalf("no %s was kept across a round: the run does not exercise it (%v)", kind, seen)
		}
	}
}
