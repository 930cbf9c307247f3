package node

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repchain/internal/consensus"
	"repchain/internal/crypto"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// alliance is three governors' round steppers on a zero-delay bus: the
// smallest driver there is. No sockets, no sleeps, no engine.
type alliance struct {
	t        *testing.T
	bus      *network.Bus
	ids      []identity.NodeID
	govs     []*Governor
	rounds   []*GovernorRound
	stakes   []uint64
	reg      *metrics.Registry
	log      *events.Log
	round    uint64
	provider identity.Member
}

// newAlliance builds the alliance; configure, when non-nil, adjusts
// governor j's configuration before the governor is built.
func newAlliance(t *testing.T, configure func(j int, cfg *GovernorConfig)) *alliance {
	t.Helper()
	a := &alliance{t: t, bus: network.NewBus(0), stakes: []uint64{1, 2, 1}, reg: metrics.NewRegistry(),
		log: events.NewLog(256)}
	seed := make([]byte, crypto.SeedSize)
	topo, err := identity.NewRegularTopology(identity.TopologySpec{Providers: 1, Collectors: 1, Degree: 1})
	a.check(err)
	roster, err := identity.NewRoster(topo, 3, seed)
	a.check(err)
	a.provider = roster.Providers[0]
	_, err = a.bus.Register(roster.Collectors[0].ID)
	a.check(err)
	var pubs []crypto.PublicKey
	for _, mem := range roster.Governors {
		a.ids = append(a.ids, mem.ID)
		pubs = append(pubs, mem.PublicKey)
	}
	for j, mem := range roster.Governors {
		ep, err := a.bus.Register(mem.ID)
		a.check(err)
		cfg := GovernorConfig{
			Member: mem, Endpoint: ep, Roster: roster,
			Params: reputation.DefaultParams(), Validator: oracle, Seed: int64(j), Metrics: a.reg,
			Events: a.log,
		}
		if configure != nil {
			configure(j, &cfg)
		}
		gov, err := NewGovernor(cfg)
		a.check(err)
		a.govs = append(a.govs, gov)
		a.rounds = append(a.rounds, NewGovernorRound(gov, a.ids, pubs, nil, a.stakes))
	}
	return a
}

func (a *alliance) check(err error) {
	a.t.Helper()
	if err != nil {
		a.t.Fatal(err)
	}
}

func (a *alliance) ingest(j int) {
	a.t.Helper()
	a.check(a.rounds[j].Ingest(a.govs[j].Endpoint().Receive()))
}

// open runs every governor through Begin, Screen and SendTickets.
func (a *alliance) open() {
	a.t.Helper()
	a.round++
	for j, r := range a.rounds {
		r.Begin(a.round)
		a.ingest(j)
		a.check(r.Screen())
		a.check(r.SendTickets(a.stakes[j], a.bus))
	}
}

// elect has every governor in js ingest and elect; they must agree.
func (a *alliance) elect(js ...int) int {
	a.t.Helper()
	leader := -1
	for _, j := range js {
		a.ingest(j)
		l, err := a.rounds[j].Elect(a.stakes)
		a.check(err)
		if leader >= 0 && l != leader {
			a.t.Fatalf("governor %d elected %d, others %d", j, l, leader)
		}
		leader = l
	}
	return leader
}

func (a *alliance) propose(j int) ledger.Block {
	a.t.Helper()
	b, err := a.rounds[j].Propose(a.bus)
	a.check(err)
	return b
}

func (a *alliance) adopt(j int) bool {
	a.t.Helper()
	a.ingest(j)
	committed, err := a.rounds[j].Adopt()
	a.check(err)
	return committed
}

// runRound is the whole lock-step driver: one clean round.
func (a *alliance) runRound() {
	a.t.Helper()
	a.open()
	a.propose(a.elect(0, 1, 2))
	for j := range a.rounds {
		if !a.adopt(j) {
			a.t.Fatalf("governor %d did not commit round %d", j, a.round)
		}
	}
}

// stake runs every governor's stake steps, each ingesting first, until
// all report done.
func (a *alliance) stake() {
	a.t.Helper()
	for step := 0; step < 6; step++ {
		done := true
		for j, r := range a.rounds {
			a.ingest(j)
			d, err := r.StakeStep(a.bus)
			a.check(err)
			done = done && d
		}
		if done {
			return
		}
	}
	a.t.Fatalf("round %d stake steps still running", a.round)
}

func (a *alliance) stakeIgnored(reason string) int64 {
	return a.reg.CounterVec("node.stake_ignored_total", "reason").With(reason).Value()
}

func (a *alliance) ignored(reason string) int64 {
	return a.reg.CounterVec("node.blocks_ignored_total", "reason").With(reason).Value()
}

// TestRoundAdoptsBlockFromWrongPhase is PR 8's fork as a unit test: a
// block frame that lands in a drain other than the adopt drain must
// still be committed.
func TestRoundAdoptsBlockFromWrongPhase(t *testing.T) {
	a := newAlliance(t, nil)

	// Early: the leader proposes while a slower peer is still collecting
	// tickets, so the peer's elect drain delivers the block before it
	// has elected anyone.
	a.open()
	leader := a.elect(0)
	slow := []int{1, 2}
	if leader != 0 {
		a.elect(leader)
		slow = []int{3 - leader}
	}
	a.propose(leader)
	a.elect(slow...) // tickets and block in one drain
	for j := range a.rounds {
		if !a.adopt(j) {
			t.Fatalf("governor %d lost a block that arrived in its elect drain", j)
		}
	}

	// Late: the victim's copy of round 2's block arrives only after its
	// Adopt gave up. Round 3's Screen must commit it before SendTickets
	// reads the head, or the victim's tickets fork it off for good.
	a.open()
	leader = a.elect(0, 1, 2)
	victim := (leader + 1) % 3
	a.bus.SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		return m.Kind == network.KindBlock && to == a.ids[victim]
	})
	block := a.propose(leader)
	a.bus.SetDropFunc(nil)
	for j := range a.rounds {
		if got := a.adopt(j); got != (j != victim) {
			t.Fatalf("governor %d Adopt() = %v", j, got)
		}
	}
	late := network.Message{From: a.ids[leader], Kind: network.KindBlock, Payload: block.EncodeBytes()}
	a.check(a.rounds[victim].Ingest([]network.Message{late}))
	a.runRound()
	for j, g := range a.govs {
		if h := g.Store().Height(); h != 3 {
			t.Fatalf("governor %d height = %d after round 3, want 3", j, h)
		}
	}
	if n := a.ignored("decode") + a.ignored("not_leader"); n != 0 {
		t.Fatalf("%d block frames ignored, want 0", n)
	}

	// A frame from a governor nobody elected, and one that is not a
	// block at all, are skipped and counted.
	a.open()
	impostor := (a.elect(0, 1, 2) + 1) % 3
	a.propose(impostor)
	a.check(a.bus.Multicast(a.ids[impostor], a.ids[:1], network.KindBlock, []byte("junk")))
	if a.adopt(0) {
		t.Fatal("governor 0 committed a block from an unelected proposer")
	}
	if a.ignored("decode") != 1 || a.ignored("not_leader") != 1 {
		t.Fatalf("ignored decode=%d not_leader=%d, want 1 and 1", a.ignored("decode"), a.ignored("not_leader"))
	}
}

// TestRoundTicketBatches: a stale-round batch, a malformed one, a
// duplicate and one from outside the governor list are each counted
// under their own reason and none of them moves the election; a staked
// governor's missing batch fails the election by name.
func TestRoundTicketBatches(t *testing.T) {
	a := newAlliance(t, nil)
	a.runRound()
	a.open()
	for _, junk := range []struct {
		from    identity.NodeID
		payload []byte
	}{
		{a.ids[1], consensus.EncodeRoundTickets(a.round-1, nil)}, // stale
		{a.ids[1], consensus.EncodeRoundTickets(a.round, nil)},   // duplicate: the real batch came first
		{a.ids[2], []byte{0xff}},                                 // malformed
		{"collector/0", consensus.EncodeRoundTickets(a.round, nil)},
	} {
		a.check(a.bus.Multicast(junk.from, a.ids[:1], network.KindVRF, junk.payload))
	}
	a.elect(0, 1, 2) // governor 0 got the junk, 1 and 2 did not: same leader
	for _, reason := range []string{"stale_round", "duplicate_batch", "malformed", "unknown_sender"} {
		if got := a.reg.Counter("election.vrf_" + reason).Value(); got != 1 {
			t.Errorf("election.vrf_%s = %d, want 1", reason, got)
		}
	}

	a.bus.SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		return m.Kind == network.KindVRF && m.From == a.ids[1] && to == a.ids[0]
	})
	a.open()
	a.ingest(0)
	if a.rounds[0].TicketsComplete(a.stakes) {
		t.Fatal("TicketsComplete() with governor/1's batch dropped")
	}
	_, err := a.rounds[0].Elect(a.stakes)
	if !errors.Is(err, consensus.ErrIncompleteElection) || !strings.Contains(fmt.Sprint(err), "governor/1") {
		t.Fatalf("Elect() error = %v, want ErrIncompleteElection naming governor/1", err)
	}
}

// TestRoundElectReportsLeader: Elect is the one place the election's
// outcome is reported, so both drivers emit the same thing — each
// governor, under its own ID, names the node it elected; a failed
// election reports nothing.
func TestRoundElectReportsLeader(t *testing.T) {
	a := newAlliance(t, nil)
	a.open()
	want := string(a.ids[a.elect(0, 1, 2)])
	var evNodes []string
	for _, e := range a.log.Events() {
		if e.Type == events.TypeLeaderElected {
			if e.Round != a.round || e.Trace != "" || len(e.Attrs) != 1 || e.Attrs[0] != (events.Attr{Key: "leader", Value: want}) {
				t.Errorf("event %+v, want round %d leader %s", e, a.round, want)
			}
			evNodes = append(evNodes, e.Node)
		}
	}
	if nodes := fmt.Sprint(a.ids); fmt.Sprint(evNodes) != nodes {
		t.Fatalf("elect events from %v; want one each from %v", evNodes, nodes)
	}

	a.bus.SetDropFunc(func(m network.Message, _ identity.NodeID) bool { return m.Kind == network.KindVRF })
	a.open()
	a.ingest(0)
	if _, err := a.rounds[0].Elect(a.stakes); !errors.Is(err, consensus.ErrIncompleteElection) {
		t.Fatalf("Elect() error = %v, want ErrIncompleteElection", err)
	}
	for _, e := range a.log.Events() {
		if e.Type == events.TypeLeaderElected && e.Round == a.round {
			t.Fatalf("a failed election reported a leader: %+v", e)
		}
	}
}

// fileStores is a newAlliance configure that backs governor j's
// ledger with a file store in dir/j.
func fileStores(t *testing.T, dir string) func(j int, cfg *GovernorConfig) {
	return func(j int, cfg *GovernorConfig) {
		fs, err := ledger.OpenFileStore(filepath.Join(dir, fmt.Sprint(j)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fs.Close() })
		cfg.Store = fs
	}
}

// TestRoundCheckpointCadence: MaybeCheckpoint snapshots once the chain
// has grown the cadence past the last snapshot, and a second call at
// an unchanged height — a round that committed nothing — writes none.
func TestRoundCheckpointCadence(t *testing.T) {
	a := newAlliance(t, fileStores(t, t.TempDir()))
	snapshots := a.reg.Counter("ledger.snapshots_total")
	for round, want := range []int64{0, 1, 1, 2} {
		a.runRound()
		a.check(a.rounds[0].MaybeCheckpoint(2))
		if got := snapshots.Value(); got != want {
			t.Fatalf("after round %d: ledger.snapshots_total = %d, want %d", round+1, got, want)
		}
	}
	a.check(a.rounds[0].MaybeCheckpoint(2))
	if got := snapshots.Value(); got != 2 {
		t.Fatalf("second call at height 4: ledger.snapshots_total = %d, want 2", got)
	}
}

// TestRoundCheckpointRestoreRoundTrip: Checkpoint, reopen the store,
// Restore — reputation, stakes and next nonces come back bit for bit.
func TestRoundCheckpointRestoreRoundTrip(t *testing.T) {
	open := fileStores(t, t.TempDir())
	a := newAlliance(t, open)
	a.check(a.rounds[1].TransferStake(0, 1, a.bus))
	a.runRound()
	a.stake()
	a.check(a.govs[0].Table().RecordForgery(0))
	want := a.govs[0].Table().Snapshot()
	a.check(a.rounds[0].Checkpoint(nil, true))
	a.check(a.govs[0].Store().(*ledger.FileStore).Close())

	b := newAlliance(t, open)
	if bytes.Equal(b.govs[0].Table().Snapshot(), want) {
		t.Fatal("fresh table already equals the checkpointed one; test vacuous")
	}
	b.check(b.rounds[0].Restore())
	if !bytes.Equal(b.govs[0].Table().Snapshot(), want) {
		t.Fatal("reputation changed across checkpoint and restore")
	}
	if got := fmt.Sprint(b.rounds[0].Stakes(), b.rounds[0].nextNonce); got != "[2 1 1] [0 1 0]" {
		t.Fatalf("restored stakes and next nonces %s, want [2 1 1] [0 1 0]", got)
	}
}

// signedTx is the alliance provider's valid transaction number seq.
func (a *alliance) signedTx(seq int) tx.SignedTx {
	return tx.Sign(tx.Transaction{Provider: a.provider.ID, Seq: uint64(seq), Kind: "x", Payload: []byte{1, byte(seq)}},
		a.provider.PrivateKey)
}

// TestRoundArgueCarryCrossesLeaders: argue re-validations beyond
// b_limit wait on every governor, so whichever governor leads next
// commits them — here a different one each round.
func TestRoundArgueCarryCrossesLeaders(t *testing.T) {
	const limit, argues = 2, 5
	a := newAlliance(t, func(_ int, cfg *GovernorConfig) { cfg.BlockLimit = limit })
	pending := make(map[crypto.Hash]bool, argues)
	var msgs []network.Message
	for i := 1; i <= argues; i++ {
		signed := a.signedTx(i)
		pending[signed.ID()] = true
		msgs = append(msgs, network.Message{From: a.provider.ID, Kind: network.KindArgue,
			Payload: NewArgue(signed, 1, a.provider.PrivateKey).EncodeBytes()})
	}
	for _, r := range a.rounds {
		a.check(r.Ingest(msgs))
	}
	for len(pending) > 0 {
		if a.round == 3 {
			t.Fatalf("%d argued transactions still uncommitted after 3 rounds", len(pending))
		}
		a.open()
		leader := a.elect(0, 1, 2)
		block := a.propose(leader)
		for j := range a.rounds {
			if !a.adopt(j) {
				t.Fatalf("governor %d did not commit round %d", j, a.round)
			}
		}
		if len(block.Records) != min(limit, len(pending)) {
			t.Fatalf("round %d block has %d records, want %d", a.round, len(block.Records), min(limit, len(pending)))
		}
		for _, rec := range block.Records {
			if rec.Status != tx.StatusValid || !pending[rec.Signed.ID()] {
				t.Fatalf("round %d committed %+v, want a pending re-validation", a.round, rec)
			}
			delete(pending, rec.Signed.ID())
		}
		a.stakes[leader] = 0 // the next round goes to a governor that has not led
	}
}

// TestRoundAdoptRefusesOversizedBlock: a replica refuses a block over
// b_limit even when the elected leader signed it, so |TXList| ≤ b_limit
// holds on every replica, not only in the leader's packing.
func TestRoundAdoptRefusesOversizedBlock(t *testing.T) {
	const limit = 2
	a := newAlliance(t, func(_ int, cfg *GovernorConfig) { cfg.BlockLimit = limit })
	a.open()
	leader := a.elect(0, 1, 2)
	follower := (leader + 1) % 3
	records := make([]ledger.Record, limit+1)
	for i := range records {
		records[i] = ledger.Record{Signed: a.signedTx(i + 1), Label: tx.LabelValid, Status: tx.StatusValid}
	}
	block, err := ledger.NewBlock(nil, records, 0)
	a.check(err)
	block.SignAs(a.ids[leader], a.govs[leader].cfg.Member.PrivateKey)
	a.check(a.bus.Multicast(a.ids[leader], a.ids[follower:follower+1], network.KindBlock, block.EncodeBytes()))
	a.ingest(follower)
	if _, err := a.rounds[follower].Adopt(); !errors.Is(err, ledger.ErrBlockTooLarge) {
		t.Fatalf("Adopt() of a %d-record block with b_limit %d = %v, want ErrBlockTooLarge", len(records), limit, err)
	}
	if h := a.govs[follower].Store().Height(); h != 0 {
		t.Fatalf("height %d after refusing the block, want 0", h)
	}
}

// TestRoundStakeExpulsion is §3.4.3's expulsion on the shipped step: a
// leader whose proposal mints stake is accused, every governor verifies
// the evidence and expels it, the next election runs without it, and the
// transfer commits exactly once under the next leader. A replayed
// committed transfer is refused the same way: its frame as a spent
// nonce, a leader re-proposing it by expulsion.
func TestRoundStakeExpulsion(t *testing.T) {
	a := newAlliance(t, nil)
	initial := slices.Clone(a.stakes)
	a.open()
	liar := a.elect(0, 1, 2)
	a.propose(liar)
	for j := range a.rounds {
		a.adopt(j)
	}
	payer, payee := (liar+1)%3, (liar+2)%3
	a.rounds[liar].CorruptNextStakeProposal()
	a.check(a.rounds[payer].TransferStake(payee, 1, a.bus))
	a.stake()
	var expelledBy []string
	for _, e := range a.log.Events() {
		if e.Type == events.TypeLeaderExpelled {
			if e.Attrs[0] != (events.Attr{Key: "leader", Value: string(a.ids[liar])}) {
				t.Errorf("event %+v, want leader %s", e, a.ids[liar])
			}
			expelledBy = append(expelledBy, e.Node)
		}
	}
	if len(expelledBy) != 3 {
		t.Fatalf("leader.expelled from %v, want one from each governor", expelledBy)
	}
	for j, r := range a.rounds {
		if r.Stakes()[liar] != 0 || !slices.Equal(r.stakes, initial) || r.StakeBlock() != nil {
			t.Fatalf("governor %d: stakes %v (committed %v) after expelling governor %d", j, r.Stakes(), r.stakes, liar)
		}
	}

	// The next election excludes the liar; its leader commits the transfer.
	a.stakes = a.rounds[0].Stakes()
	a.open()
	leader := a.elect(0, 1, 2)
	if leader == liar {
		t.Fatalf("expelled governor %d led round %d", liar, a.round)
	}
	a.propose(leader)
	for j := range a.rounds {
		a.adopt(j)
	}
	a.stake()
	want := slices.Clone(initial)
	want[payer]--
	want[payee]++
	for j, r := range a.rounds {
		if sb := r.StakeBlock(); sb == nil || sb.Round != a.round || !slices.Equal(r.stakes, want) || r.nextNonce[payer] != 1 {
			t.Fatalf("governor %d: committed %v, next nonces %v; want %v and payer %d at nonce 1", j, r.stakes, r.nextNonce, want, payer)
		}
	}

	replayed := consensus.SignStakeTx(payer, payee, 1, 0, a.govs[payer].cfg.Member.PrivateKey)
	a.check(a.bus.Multicast(a.ids[payer], a.ids, network.KindStakeTx, consensus.EncodeStakeTx(replayed)))
	a.stakes = a.rounds[0].Stakes()
	a.runRound()
	if n := a.stakeIgnored("stale_nonce"); n != 3 {
		t.Fatalf("replayed transfer frame: stale_nonce = %d, want 3", n)
	}
	leader = a.rounds[0].leader
	key := a.govs[leader].cfg.Member.PrivateKey
	p := consensus.ResignProposal(consensus.StateProposal{Round: a.round, Leader: leader, NewState: want,
		Txs: []consensus.StakeTx{replayed}}, key)
	a.check(a.bus.Multicast(a.ids[leader], a.ids, network.KindStakeState, consensus.EncodeProposal(p)))
	a.stake()
	for j, r := range a.rounds {
		if r.Stakes()[leader] != 0 || !slices.Equal(r.stakes, want) {
			t.Fatalf("governor %d: stakes %v (committed %v) after governor %d re-proposed a committed transfer", j, r.Stakes(), r.stakes, leader)
		}
	}
}

// TestRoundStakeOverdraftRefused: the payer's own step refuses what its
// stake less its filed transfers cannot cover, and a foreign overdraft
// is dropped by every governor, never filed; each is counted.
func TestRoundStakeOverdraftRefused(t *testing.T) {
	a := newAlliance(t, nil) // stakes 1, 2, 1
	a.check(a.rounds[1].TransferStake(0, 2, a.bus))
	if err := a.rounds[1].TransferStake(2, 1, a.bus); !errors.Is(err, consensus.ErrInsufficientStake) {
		t.Fatalf("second transfer error = %v, want ErrInsufficientStake", err)
	}
	over := consensus.SignStakeTx(0, 1, 5, 0, a.govs[0].cfg.Member.PrivateKey)
	a.check(a.bus.Multicast("collector/0", a.ids, network.KindStakeTx, consensus.EncodeStakeTx(over)))
	a.runRound()
	a.stake()
	if n := a.stakeIgnored("insufficient"); n != 1+3 {
		t.Fatalf("refused transfer and foreign overdraft: insufficient = %d, want 1+3", n)
	}
	for j, r := range a.rounds {
		if got := fmt.Sprint(r.stakes, len(r.transfers)); got != "[3 0 1] 0" {
			t.Fatalf("governor %d: stakes and filed transfers %s, want [3 0 1] 0", j, got)
		}
	}
}

// TestRoundStakeForgeries: nothing the leader did not sign speaks for it
// or convicts it. A proposal in its name signed by another governor, and
// evidence embedding that proposal, are counted as bad_sig and expel no
// one; the leader's real proposal is still filed and commits. Evidence
// replaying the committed proposal once its block is applied is stale,
// though against the moved stakes it would fail verification.
func TestRoundStakeForgeries(t *testing.T) {
	a := newAlliance(t, nil)
	a.open()
	leader := a.elect(0, 1, 2)
	a.propose(leader)
	for j := range a.rounds {
		a.adopt(j)
	}
	other := (leader + 1) % 3
	key := a.govs[other].cfg.Member.PrivateKey
	forged := consensus.ResignProposal(consensus.StateProposal{Round: a.round, Leader: leader, NewState: []uint64{9, 9, 9}}, key)
	a.check(a.bus.Multicast(a.ids[other], a.ids, network.KindStakeState, consensus.EncodeProposal(forged)))
	framed := consensus.AccuseLeader(other, forged, errors.New("framed"), key)
	a.check(a.bus.Multicast(a.ids[other], a.ids, network.KindEvidence, consensus.EncodeEvidence(framed)))
	a.check(a.rounds[other].TransferStake(leader, 1, a.bus))
	a.stake()
	if n := a.stakeIgnored("bad_sig"); n != 2*3 {
		t.Fatalf("forged proposal and its evidence: bad_sig = %d, want 2*3", n)
	}
	committed := *a.rounds[other].proposal
	for j, r := range a.rounds {
		if sb := r.StakeBlock(); sb == nil || sb.Round != a.round || r.Expulsion(leader) != nil {
			t.Fatalf("governor %d: stake block %v, expelled leader %d: %v", j, sb, leader, r.Expulsion(leader) != nil)
		}
		if err := consensus.VerifyProposal(committed, r.pubs[leader], r.pubs, r.stakes, r.nextNonce); err == nil {
			t.Fatal("the committed proposal verifies against the moved stakes; replay check vacuous")
		}
	}

	replayed := consensus.AccuseLeader(other, committed, errors.New("replayed"), key)
	a.check(a.bus.Multicast(a.ids[other], a.ids, network.KindEvidence, consensus.EncodeEvidence(replayed)))
	a.stake()
	if n := a.stakeIgnored("stale_round"); n != 3 {
		t.Fatalf("replayed committed proposal: stale_round = %d, want 3", n)
	}
	for j, r := range a.rounds {
		if r.Expulsion(leader) != nil {
			t.Fatalf("governor %d expelled leader %d on a replayed proposal", j, leader)
		}
	}
}

// TestRoundLateStakeBlock: a stake block that misses its round is
// applied when it arrives in the next, before the tickets read the
// stakes.
func TestRoundLateStakeBlock(t *testing.T) {
	a := newAlliance(t, nil)
	a.runRound()
	victim := (a.rounds[0].leader + 1) % 3
	var late []network.Message
	a.bus.SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		if m.Kind == network.KindStakeBlock && to == a.ids[victim] {
			late = append(late, m)
			return true
		}
		return false
	})
	a.check(a.rounds[1].TransferStake(0, 1, a.bus))
	for step := 0; step < 4; step++ {
		for j, r := range a.rounds {
			a.ingest(j)
			_, err := r.StakeStep(a.bus)
			a.check(err)
		}
	}
	a.bus.SetDropFunc(nil)
	if len(late) != 1 || a.rounds[victim].StakeBlock() != nil || a.rounds[(victim+1)%3].StakeBlock() == nil {
		t.Fatalf("%d stake blocks held back; the victim should lack the one the others applied", len(late))
	}
	a.check(a.bus.Multicast(late[0].From, a.ids[victim:victim+1], network.KindStakeBlock, late[0].Payload))
	a.runRound() // the victim ingests it after Begin, before Screen
	for j, r := range a.rounds {
		if got := fmt.Sprint(r.Stakes()); got != "[2 1 1]" {
			t.Fatalf("governor %d stakes %s, want [2 1 1]", j, got)
		}
	}
}

// TestRoundTicketLookahead: governors are not phase-locked, so a peer
// that finished round r first sends its round r+1 batch to a governor
// still in round r. The batch is kept and becomes round r+1's at Begin;
// a second one from the same peer is a duplicate, and batches for any
// other round are stale.
func TestRoundTicketLookahead(t *testing.T) {
	a := newAlliance(t, nil)
	a.runRound()
	a.round++
	for _, j := range []int{1, 2} {
		r := a.rounds[j]
		r.Begin(a.round)
		a.ingest(j)
		a.check(r.Screen())
		a.check(r.SendTickets(a.stakes[j], a.bus))
	}
	for _, junk := range [][]byte{
		consensus.EncodeRoundTickets(a.round, nil),   // duplicate of governor/1's round-2 batch
		consensus.EncodeRoundTickets(a.round+1, nil), // two rounds ahead
	} {
		a.check(a.bus.Multicast(a.ids[1], a.ids[:1], network.KindVRF, junk))
	}
	a.ingest(0) // governor/0 is still in round 1
	slow := a.rounds[0]
	slow.Begin(a.round)
	if !slow.TicketsComplete([]uint64{0, a.stakes[1], a.stakes[2]}) {
		t.Fatal("Begin dropped the peers' batches filed one round early")
	}
	a.check(slow.Screen())
	a.check(slow.SendTickets(a.stakes[0], a.bus))
	a.ingest(0)
	if !slow.TicketsComplete(a.stakes) {
		t.Fatal("TicketsComplete() false with every batch filed")
	}
	a.propose(a.elect(0, 1, 2))
	for j := range a.rounds {
		if !a.adopt(j) {
			t.Fatalf("governor %d did not commit round %d", j, a.round)
		}
	}
	for reason, want := range map[string]int64{"stale_round": 1, "duplicate_batch": 1} {
		if got := a.reg.Counter("election.vrf_" + reason).Value(); got != want {
			t.Errorf("election.vrf_%s = %d, want %d", reason, got, want)
		}
	}
}

// TestRoundUploadsComplete: a collector with nothing to upload still
// sends one signed empty batch for its round. A verified batch admits
// nothing when empty and counts toward UploadsComplete for its round and
// every earlier one; a batch whose signature fails does not count.
func TestRoundUploadsComplete(t *testing.T) {
	fx := newFixture(t, nil)
	gov := fx.roster.Governors[0]
	r := NewGovernorRound(fx.governor, []identity.NodeID{gov.ID}, []crypto.PublicKey{gov.PublicKey}, nil, []uint64{1})
	coll0, coll1 := fx.roster.Collectors[0], fx.roster.Collectors[1]
	ingest := func(msgs ...network.Message) {
		t.Helper()
		if err := r.Ingest(msgs); err != nil {
			t.Fatal(err)
		}
	}
	r.Begin(1)
	if r.UploadsComplete() {
		t.Fatal("UploadsComplete() before any upload")
	}
	fx.collectors[0].SetRound(1)
	if n, err := fx.collectors[0].ProcessBatch(nil, fx.bus); err != nil || n != 0 {
		t.Fatalf("ProcessBatch(nil) = %d, %v", n, err)
	}
	if got := fx.bus.Stats().SentByKind[network.KindCollectorBatch]; got != 1 {
		t.Fatalf("an empty drain sent %d batches, want 1", got)
	}
	ingest(fx.governor.Endpoint().Receive()...)
	if st := fx.governor.Stats(); st.ForgeriesDetected != 0 || st.ReportsReceived != 0 || fx.governor.MempoolDepth() != 0 {
		t.Fatalf("empty batch: %+v, mempool %d; want nothing admitted or penalized", st, fx.governor.MempoolDepth())
	}
	if r.UploadsComplete() {
		t.Fatal("UploadsComplete() with collector/1's batch missing")
	}
	forgedSig := identity.Member{ID: coll1.ID, PrivateKey: coll0.PrivateKey}
	ingest(roundUploadMsg(t, forgedSig, coll1.ID, 1))
	if st := fx.governor.Stats(); st.ForgeriesDetected != 1 {
		t.Fatalf("bad-signature batch: %d penalties, want 1", st.ForgeriesDetected)
	}
	if r.UploadsComplete() {
		t.Fatal("a batch that fails its signature counted toward UploadsComplete()")
	}
	ingest(roundUploadMsg(t, coll1, coll1.ID, 1))
	if !r.UploadsComplete() {
		t.Fatal("UploadsComplete() false with both round-1 batches verified")
	}
	r.Begin(2)
	if r.UploadsComplete() {
		t.Fatal("round-1 batches counted for round 2")
	}
	ingest(roundUploadMsg(t, coll0, coll0.ID, 3), roundUploadMsg(t, coll1, coll1.ID, 2))
	if !r.UploadsComplete() {
		t.Fatal("UploadsComplete() false with batches for round 2 and later")
	}
}
