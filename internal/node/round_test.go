package node

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

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

// testClock is the node tests' round schedule. Their time is virtual:
// a harness passes each Step the instant it stands for.
var testClock = Clock{Round: time.Second}

// alliance is three governors on a zero-delay bus with one provider and
// one collector, driven only through Step: the smallest driver there
// is. No sockets, no sleeps, no engine. The lock-step helpers below step
// every governor at the round's current deadline, as core.Engine does.
type alliance struct {
	t       *testing.T
	bus     *network.Bus
	ids     []identity.NodeID
	govs    []*Governor
	inboxes []*network.Endpoint
	reg     *metrics.Registry
	log     *events.Log
	// round is the clock round being stepped; down is the failure
	// detector's verdict open hands every governor.
	round    uint64
	down     []bool
	provider identity.Member
	prov     *Provider
	provEp   *network.Endpoint
	coll     *Collector
	collEp   *network.Endpoint
}

// newAlliance builds the alliance; configure, when non-nil, adjusts
// governor j's configuration before the governor is built.
func newAlliance(t *testing.T, configure func(j int, cfg *GovernorConfig)) *alliance {
	t.Helper()
	a := &alliance{t: t, bus: network.NewBus(0), down: make([]bool, 3), reg: metrics.NewRegistry(),
		log: events.NewLog(256)}
	seed := make([]byte, crypto.SeedSize)
	topo, err := identity.NewRegularTopology(identity.TopologySpec{Providers: 1, Collectors: 1, Degree: 1})
	a.check(err)
	roster, err := identity.NewRoster(topo, 3, seed)
	a.check(err)
	a.provider = roster.Providers[0]
	a.ids = identity.IDs(roster.Governors)
	a.provEp, err = a.bus.Register(a.provider.ID)
	a.check(err)
	a.prov = NewProvider(a.provider, &testClock, identity.IDs(roster.Collectors), a.ids)
	a.collEp, err = a.bus.Register(roster.Collectors[0].ID)
	a.check(err)
	a.coll = NewCollector(roster.Collectors[0], testClock, roster, oracle, Behavior{}, 100)
	for j, mem := range roster.Governors {
		ep, err := a.bus.Register(mem.ID)
		a.check(err)
		cfg := GovernorConfig{
			Member: mem, Clock: testClock, Roster: roster, Stakes: []uint64{1, 2, 1},
			Params: reputation.DefaultParams(), Validator: oracle, Seed: int64(j), Metrics: a.reg,
			Events: a.log,
		}
		if configure != nil {
			configure(j, &cfg)
		}
		gov, err := NewGovernor(cfg)
		a.check(err)
		t.Cleanup(func() { _ = gov.Close() })
		a.govs, a.inboxes = append(a.govs, gov), append(a.inboxes, ep)
	}
	return a
}

func (a *alliance) check(err error) {
	a.t.Helper()
	if err != nil {
		a.t.Fatal(err)
	}
}

// at is the instant frac of the way through the current round.
func (a *alliance) at(frac float64) time.Time { return testClock.At(a.round, frac) }

// try hands governor j extra and then its inbox, and steps it at now.
func (a *alliance) try(j int, now time.Time, extra ...network.Message) (Progress, error) {
	return a.govs[j].Step(now, append(extra, a.inboxes[j].Receive()...), a.bus)
}

func (a *alliance) step(j int, now time.Time, extra ...network.Message) Progress {
	a.t.Helper()
	p, err := a.try(j, now, extra...)
	a.check(err)
	return p
}

// open moves every governor into the next round at its screen deadline,
// with the failure detector's verdict: each screens and sends tickets.
func (a *alliance) open() {
	a.t.Helper()
	a.round++
	verdict := make([]byte, len(a.govs))
	for j, down := range a.down {
		if down {
			verdict[j] = 1
		}
	}
	for j := range a.govs {
		if p := a.step(j, a.at(DeadlineScreen), network.Message{From: a.ids[j], Kind: KindDown, Payload: verdict}); p.Round != a.round || p.Phase < PhaseElect {
			a.t.Fatalf("governor %d in round %d phase %d after round %d's screen deadline", j, p.Round, p.Phase, a.round)
		}
	}
}

// elect steps every governor in js at the election deadline; they must
// agree on the leader.
func (a *alliance) elect(js ...int) int {
	a.t.Helper()
	leader := -1
	for _, j := range js {
		l := a.step(j, a.at(DeadlineElect)).Leader
		if leader >= 0 && l != leader {
			a.t.Fatalf("governor %d elected %d, others %d", j, l, leader)
		}
		leader = l
	}
	return leader
}

// propose steps leader j once more: it packs and multicasts the block.
func (a *alliance) propose(j int) {
	a.t.Helper()
	if p := a.step(j, a.at(DeadlineElect)); p.Phase != PhaseCommit {
		a.t.Fatalf("governor %d in phase %d after proposing", j, p.Phase)
	}
}

// adopt steps governor j in the commit phase: it adopts the block if it
// is in, then takes a stake step.
func (a *alliance) adopt(j int) bool {
	a.t.Helper()
	return a.step(j, a.at(DeadlineElect)).Committed
}

// head is governor j's newest block.
func (a *alliance) head(j int) ledger.Block {
	a.t.Helper()
	b, err := a.govs[j].Store().Get(a.govs[j].Store().Height())
	a.check(err)
	return b
}

// runRound is the whole lock-step driver: one clean round.
func (a *alliance) runRound() {
	a.t.Helper()
	a.open()
	a.propose(a.elect(0, 1, 2))
	for j := range a.govs {
		if !a.adopt(j) {
			a.t.Fatalf("governor %d did not commit round %d", j, a.round)
		}
	}
}

// stake steps every governor in the commit phase until all report the
// stake transform done.
func (a *alliance) stake() {
	a.t.Helper()
	for step := 0; step < 6; step++ {
		done := true
		for j := range a.govs {
			done = a.step(j, a.at(DeadlineElect)).StakeDone && done
		}
		if done {
			return
		}
	}
	a.t.Fatalf("round %d stake steps still running", a.round)
}

// end steps every governor at the round's end: the round is over.
func (a *alliance) end() {
	a.t.Helper()
	for j := range a.govs {
		if p := a.step(j, a.at(1)); p.Phase != PhaseOver {
			a.t.Fatalf("governor %d in phase %d at the round's end", j, p.Phase)
		}
	}
}

func (a *alliance) stakeIgnored(reason string) int64 {
	return a.reg.CounterVec("node.stake_ignored_total", "reason").With(reason).Value()
}

func (a *alliance) ignored(reason string) int64 {
	return a.reg.CounterVec("node.blocks_ignored_total", "reason").With(reason).Value()
}

// roundItems are round's transactions from, from+1, …, n of them,
// every other one valid.
func roundItems(round uint64, from, n int) []Submission {
	out := make([]Submission, n)
	for i := range out {
		k := from + i
		out[i] = Submission{Kind: "x", Payload: []byte{byte(1 - k%2), byte(k), byte(round)}, Valid: k%2 == 0}
	}
	return out
}

// broadcast has the provider sign round's transactions from, …,
// from+n−1 and broadcast them as one frame, outside its Step: as often
// as a test likes within a round.
func (a *alliance) broadcast(round uint64, from, n int) {
	a.t.Helper()
	a.check(a.prov.broadcast(signBatch(a.prov, roundItems(round, from, n), int64(round)), a.bus))
}

// sign queues n transactions for round and steps the provider at the
// round's opening, 0⁺, until it has signed and broadcast them.
func (a *alliance) sign(round uint64, n int) {
	a.t.Helper()
	queue(a.prov, roundItems(round, 0, n), int64(round))
	for _, want := range []Phase{PhaseSign, PhaseArgue} {
		p, err := a.prov.Step(testClock.At(round, 0).Add(time.Nanosecond), a.provEp.Receive(), a.bus)
		a.check(err)
		if p.Round != round || p.Phase != want {
			a.t.Fatalf("provider in round %d phase %d at round %d's opening, want phase %d", p.Round, p.Phase, round, want)
		}
	}
}

// send has the provider send n transactions for round in two frames
// signed apart: the first half signed by its Step at the round's
// opening, the rest by broadcast right after.
func (a *alliance) send(round uint64, n int) {
	a.t.Helper()
	a.sign(round, n/2)
	a.broadcast(round, n/2, n-n/2)
}

// submit has the provider send n transactions for round in two frames
// and steps the collector at round's upload deadline with both: the
// round's traffic up to the governors.
func (a *alliance) submit(round uint64, n int) {
	a.t.Helper()
	a.send(round, n)
	p, err := stepDue(a.coll, testClock.At(round, DeadlineUpload), a.collEp.Receive(), a.bus)
	a.check(err)
	if p.Round != round || p.Phase != PhaseOver {
		a.t.Fatalf("collector in round %d phase %d after round %d's upload deadline", p.Round, p.Phase, round)
	}
}

// stepDue steps collector c at now with msgs, and again while a Step is
// due at now, as a driver does: the Step that opens a round holds an
// upload already due for the next.
func stepDue(c *Collector, now time.Time, msgs []network.Message, out Sender) (Progress, error) {
	p, err := c.Step(now, msgs, out)
	for err == nil && !p.WakeAt.After(now) {
		p, err = c.Step(now, nil, out)
	}
	return p, err
}

// argue steps the provider at now with the block frames that reached
// it, all in one Step or, with each set, one per Step; it returns the
// argues they drew.
func (a *alliance) argue(now time.Time, each bool) int {
	a.t.Helper()
	before, msgs := a.prov.Argues(), a.provEp.Receive()
	for len(msgs) > 0 {
		n := len(msgs)
		if each {
			n = 1
		}
		_, err := a.prov.Step(now, msgs[:n], a.bus)
		a.check(err)
		msgs = msgs[n:]
	}
	return a.prov.Argues() - before
}

// TestRoundScheduleParity: the two drivers' schedules commit the same
// chain. One alliance is stepped in lock-step at each deadline, the
// engine's schedule; the other gets every message in a Step of its own
// with the time before every deadline, the TCP schedule, so each step
// runs the moment its inputs are in and only the provider's signing, the
// collector's upload and a round's end wait for the clock. Each round
// the provider sends two frames signed apart, which the lock-step
// collector files in one Step and the work-bound one in two. Over 12
// rounds with a misreporting collector, argues and a stake transfer,
// both draw the same argues and end with the same blocks, reputation
// tables and stakes on every governor.
func TestRoundScheduleParity(t *testing.T) {
	const rounds, perRound = 12, 8
	lockStep, workBound := newAlliance(t, nil), newAlliance(t, nil)
	argues, workArgues := 0, 0
	for _, a := range []*alliance{lockStep, workBound} {
		a.coll.behavior = Behavior{Misreport: 0.5}
	}
	for r := 1; r <= rounds; r++ {
		if r == 5 {
			for _, a := range []*alliance{lockStep, workBound} {
				a.check(a.govs[1].TransferStake(0, 1, a.bus))
			}
		}

		a := lockStep
		a.submit(a.round+1, perRound)
		a.open()
		a.propose(a.elect(0, 1, 2))
		argues += a.argue(a.at(DeadlineElect), false)
		a.stake()
		a.end()

		a = workBound
		a.round++
		a.send(a.round, perRound)
		// The collector files one frame per Step before its deadline and
		// uploads at the Step its WakeAt asks for.
		var p Progress
		frames := a.collEp.Receive()
		if len(frames) != 2 {
			t.Fatalf("collector got %d frames in round %d, want the provider's two", len(frames), a.round)
		}
		for _, m := range frames {
			var err error
			p, err = a.coll.Step(a.at(0.1), []network.Message{m}, a.bus)
			a.check(err)
			if p.Phase != PhaseUpload || !p.WakeAt.Equal(a.at(DeadlineUpload)) {
				t.Fatalf("collector in phase %d waking at %v after filing a frame, want the upload deadline", p.Phase, p.WakeAt)
			}
		}
		if p, err := a.coll.Step(p.WakeAt, nil, a.bus); err != nil || p.Phase != PhaseOver {
			t.Fatalf("collector in phase %d after its upload deadline: %v", p.Phase, err)
		}
		now := a.at(DeadlineScreen).Add(-time.Nanosecond)
		queues := make([][]network.Message, len(a.govs))
		due := make([]bool, len(a.govs))
		for stepped := true; stepped; {
			stepped = false
			workArgues += a.argue(now, true)
			for j, g := range a.govs {
				queues[j] = append(queues[j], a.inboxes[j].Receive()...)
				var msgs []network.Message
				if len(queues[j]) > 0 {
					msgs, queues[j] = queues[j][:1], queues[j][1:]
				} else if !due[j] {
					continue
				}
				p, err := g.Step(now, msgs, a.bus)
				a.check(err)
				due[j], stepped = !p.WakeAt.After(now), true
			}
		}
	}
	workBound.round++
	for j := range workBound.govs {
		workBound.step(j, workBound.at(0))
	}

	if argues == 0 || lockStep.govs[0].StakeBlock() == nil {
		t.Fatalf("%d argues, stake block %v: the schedules were not put to the test", argues, lockStep.govs[0].StakeBlock())
	}
	if workArgues != argues {
		t.Fatalf("the work-bound schedule drew %d argues, the lock-step one %d", workArgues, argues)
	}
	for j := range lockStep.govs {
		want, got := lockStep.govs[j], workBound.govs[j]
		if h := got.Store().Height(); h != rounds || want.Store().Height() != rounds {
			t.Fatalf("governor %d heights %d and %d, want %d", j, want.Store().Height(), h, rounds)
		}
		if want.Store().HeadHash() != got.Store().HeadHash() {
			t.Fatalf("governor %d: the schedules committed different chains", j)
		}
		if !bytes.Equal(want.Table().Snapshot(), got.Table().Snapshot()) {
			t.Fatalf("governor %d: the schedules left different reputation tables", j)
		}
		if fmt.Sprint(want.Stakes()) != fmt.Sprint(got.Stakes()) || got.StakeBlock() == nil {
			t.Fatalf("governor %d stakes %v and %v", j, want.Stakes(), got.Stakes())
		}
	}
}

// TestCollectorLateFrame: a provider frame that reaches the collector
// after its round's upload waits for the next round's batch and goes up
// there exactly once — neither dropped nor uploaded twice — while the
// round it missed uploaded only what came in time.
func TestCollectorLateFrame(t *testing.T) {
	a := newAlliance(t, nil)
	step := func(at time.Time, want Phase) Progress {
		t.Helper()
		p, err := stepDue(a.coll, at, a.collEp.Receive(), a.bus)
		a.check(err)
		if p.Phase != want {
			t.Fatalf("collector in round %d phase %d at %v, want phase %d", p.Round, p.Phase, at, want)
		}
		return p
	}
	a.broadcast(1, 0, 2)
	onTime := step(testClock.At(1, 0.1), PhaseUpload)
	step(onTime.WakeAt, PhaseOver)
	a.broadcast(1, 0, 4) // lands after round 1's upload
	late := step(testClock.At(1, 0.5), PhaseOver)
	if !late.WakeAt.Equal(testClock.At(2, DeadlineUpload)) {
		t.Fatalf("collector wakes at %v after a late frame, want round 2's upload deadline", late.WakeAt)
	}
	step(testClock.At(2, 0.1), PhaseUpload)
	step(late.WakeAt, PhaseOver)
	step(testClock.At(3, DeadlineUpload), PhaseOver)

	sizes := map[uint64]int{}
	seen := map[crypto.Hash]int{}
	for _, m := range a.inboxes[0].Receive() {
		batch, rcv, err := tx.DecodeUploadBatchBytes(m.Payload, nil, nil)
		a.check(err)
		sizes[batch.Round] = len(batch.Items)
		for _, id := range rcv.IDs {
			seen[id]++
		}
	}
	if sizes[1] != 2 || sizes[2] != 4 || sizes[3] != 0 || len(sizes) != 3 {
		t.Fatalf("upload batch sizes by round %v, want round 1: 2, round 2: 4, round 3: 0", sizes)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("transaction %s uploaded %d times", id.Short(), n)
		}
	}
	if len(seen) != 6 || a.coll.Stats().Uploaded != 6 {
		t.Fatalf("%d distinct transactions uploaded, stats %+v; want 6", len(seen), a.coll.Stats())
	}
}

// TestCollectorUploadTimedAsUpload steps a collector on core.Engine's
// schedule — at each instant of a round while a Step is due, so after
// its first round it is next stepped at the upload deadline, in the
// Step that opens the round — and checks that each round's upload is
// one round.stage_seconds{stage="upload"} sample.
func TestCollectorUploadTimedAsUpload(t *testing.T) {
	a := newAlliance(t, nil)
	timer := StageTimer{Stages: a.reg.HistogramVec("round.stage_seconds", metrics.DefBuckets, "stage")}
	const rounds = 3
	var p Progress
	for round := uint64(1); round <= rounds; round++ {
		a.broadcast(round, 0, 4)
		for _, frac := range []float64{1e-9, DeadlineUpload, DeadlineScreen, DeadlineElect, 1} {
			now := testClock.At(round, frac)
			for !p.WakeAt.After(now) {
				var err error
				p, err = timer.Step(p, func() (Progress, error) { return a.coll.Step(now, a.collEp.Receive(), a.bus) })
				a.check(err)
			}
		}
		if p.Round != round || p.Phase != PhaseOver {
			t.Fatalf("collector in round %d phase %d after round %d", p.Round, p.Phase, round)
		}
	}
	if up := timer.Stages.With("upload"); up.Count() != rounds || up.Sum() <= 0 {
		t.Fatalf("%d upload samples summing to %v s over %d rounds, want one a round", up.Count(), up.Sum(), rounds)
	}
}

// TestRoundAdoptsBlockFromWrongPhase is PR 8's fork as a unit test: a
// block frame that lands in a Step other than the adopting one must
// still be committed.
func TestRoundAdoptsBlockFromWrongPhase(t *testing.T) {
	a := newAlliance(t, nil)

	// Early: the leader proposes while a slower peer is still collecting
	// tickets, so the peer's electing Step delivers the block before it
	// has elected anyone.
	a.open()
	leader := a.elect(0)
	slow := []int{1, 2}
	if leader != 0 {
		a.elect(leader)
		slow = []int{3 - leader}
	}
	a.propose(leader)
	a.elect(slow...) // tickets and block in one Step
	for j := range a.govs {
		if !a.adopt(j) {
			t.Fatalf("governor %d lost a block that arrived in its electing Step", j)
		}
	}

	// Late: the victim's copy of round 2's block arrives only after the
	// round ended. Round 3's first Step must commit it before the tickets
	// read the head, or the victim's tickets fork it off for good.
	a.open()
	leader = a.elect(0, 1, 2)
	victim := (leader + 1) % 3
	a.bus.SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		return m.Kind == network.KindBlock && to == a.ids[victim]
	})
	a.propose(leader)
	a.bus.SetDropFunc(nil)
	for j := range a.govs {
		if got := a.adopt(j); got != (j != victim) {
			t.Fatalf("governor %d committed = %v", j, got)
		}
	}
	block := a.head(leader)
	a.check(a.bus.Multicast(a.ids[leader], a.ids[victim:victim+1], network.KindBlock, block.EncodeBytes()))
	a.runRound()
	if a.govs[victim].prevHash != block.Hash() {
		t.Fatal("the victim's round-3 tickets were not made over the late block")
	}
	for j, g := range a.govs {
		if h := g.Store().Height(); h != 3 {
			t.Fatalf("governor %d height = %d after round 3, want 3", j, h)
		}
	}
	if n := a.ignored("decode") + a.ignored("not_leader"); n != 0 {
		t.Fatalf("%d block frames ignored, want 0", n)
	}

	// A frame from a governor nobody elected, and one that is not a
	// block at all, are skipped and counted by a governor that awaits the
	// block: one that is neither the impostor nor the leader, which holds
	// its block from its pack Step.
	a.open()
	leader = a.elect(0, 1, 2)
	a.bus.SetDropFunc(func(m network.Message, to identity.NodeID) bool { return m.Kind == network.KindBlock })
	a.propose(leader)
	a.bus.SetDropFunc(nil)
	impostor, target := (leader+1)%3, (leader+2)%3
	forged, err := ledger.NewBlock(nil, nil, 0)
	a.check(err)
	forged.SignAs(a.ids[impostor], a.govs[impostor].cfg.Member.PrivateKey)
	a.check(a.bus.Multicast(a.ids[impostor], a.ids[target:target+1], network.KindBlock, forged.EncodeBytes()))
	a.check(a.bus.Multicast(a.ids[impostor], a.ids[target:target+1], network.KindBlock, []byte("junk")))
	if a.adopt(target) {
		t.Fatalf("governor %d committed a block from an unelected proposer", target)
	}
	if a.ignored("decode") != 1 || a.ignored("not_leader") != 1 {
		t.Fatalf("ignored decode=%d not_leader=%d, want 1 and 1", a.ignored("decode"), a.ignored("not_leader"))
	}
}

// TestLeaderCommitsWhatItSealed: the leader's pack Step commits the
// block it sealed, under the hash it signed, and sends it to the other
// governors and the provider only: no governor receives a block frame
// from itself, so per round m−1 of them receive and decode one. The
// leader's block.committed and tx.committed events carry the serial,
// hash and statuses every other governor's do.
func TestLeaderCommitsWhatItSealed(t *testing.T) {
	a := newAlliance(t, nil)
	received := 0 // block frames delivered to governors
	a.bus.SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		if m.Kind == network.KindBlock && slices.Contains(a.ids, to) {
			if received++; m.From == to {
				t.Errorf("governor %s sent its block to itself", to)
			}
		}
		return false
	})
	commits := func(j int) string {
		var b strings.Builder
		for _, e := range a.log.Select(events.Filter{Node: string(a.ids[j]), Round: a.round}) {
			if e.Type == events.TypeBlockCommitted || e.Type == events.TypeTxCommitted {
				fmt.Fprintln(&b, e.Type, e.Trace, e.Attrs)
			}
		}
		return b.String()
	}
	const rounds = 4
	for r := 1; r <= rounds; r++ {
		a.submit(a.round+1, 8)
		a.open()
		leader := a.elect(0, 1, 2)
		height := a.govs[leader].Store().Height()
		a.propose(leader)
		store := a.govs[leader].Store()
		if store.Height() != height+1 || store.HeadHash() != a.head(leader).Hash() {
			t.Fatalf("round %d: leader at height %d after its pack Step, want %d under its block's hash", a.round, store.Height(), height+1)
		}
		for j := range a.govs {
			if !a.adopt(j) || a.govs[j].Store().HeadHash() != store.HeadHash() {
				t.Fatalf("round %d: governor %d does not hold the leader's block", a.round, j)
			}
		}
		want := commits(leader)
		if !strings.Contains(want, events.TypeTxCommitted) {
			t.Fatalf("round %d: the leader's commit events %q hold no record", a.round, want)
		}
		for j := range a.govs {
			if got := commits(j); got != want {
				t.Fatalf("round %d: governor %d's commit events\n%s\nthe leader's\n%s", a.round, j, got, want)
			}
		}
	}
	if want := rounds * (len(a.govs) - 1); received != want {
		t.Fatalf("%d block frames reached governors in %d rounds, want %d", received, rounds, want)
	}
}

// TestRoundTicketBatches: a stale-round batch, a malformed one, a
// duplicate and one from outside the governor list are each counted
// under their own reason and none of them moves the election; a staked
// governor's missing batch fails the election by name at its deadline.
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
	early := a.at(DeadlineElect).Add(-time.Nanosecond)
	if p := a.step(0, early); p.Phase != PhaseElect || !p.WakeAt.Equal(a.at(DeadlineElect)) {
		t.Fatalf("governor/1's batch dropped: phase %d, wake at %v before the election deadline; want the election awaited", p.Phase, p.WakeAt)
	}
	p, err := a.try(0, a.at(DeadlineElect))
	if !errors.Is(err, consensus.ErrIncompleteElection) || !strings.Contains(fmt.Sprint(err), "governor/1") || p.Phase != PhaseOver {
		t.Fatalf("Step() at the election deadline = phase %d, %v; want the round over with ErrIncompleteElection naming governor/1", p.Phase, err)
	}

	// Bad batches fail the election with the error of the first of them
	// in governor order, whatever fails in each.
	badProof := func(ts []consensus.Ticket) []consensus.Ticket {
		ts[0].Proof = slices.Clone(ts[0].Proof)
		ts[0].Proof[5] ^= 1
		return ts
	}
	malformed := func([]consensus.Ticket) []consensus.Ticket { return nil }
	for _, tc := range []struct {
		name     string
		g1, g2   func([]consensus.Ticket) []consensus.Ticket
		wantFrom identity.NodeID
		want     string
	}{
		{"bad proof at g1, malformed batch at g2", badProof, malformed, a.ids[1], "ticket g1/u0"},
		{"bad proof only at g2", nil, badProof, a.ids[2], "ticket g2/u0"},
		{"malformed batch at g1, bad proof at g2", malformed, badProof, a.ids[1], "governor 1 submitted 0 tickets"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a.bus.SetDropFunc(func(m network.Message, to identity.NodeID) bool {
				return m.Kind == network.KindVRF && m.From != a.ids[0] && to == a.ids[0]
			})
			a.open()
			a.bus.SetDropFunc(nil)
			g := a.govs[0]
			for j, mutate := range []func([]consensus.Ticket) []consensus.Ticket{1: tc.g1, 2: tc.g2} {
				if j == 0 {
					continue // governor 0's own batch
				}
				ts := consensus.MakeTickets(a.govs[j].cfg.Member.PrivateKey, g.prevHash, a.round, j, g.electing[j])
				if mutate != nil {
					ts = mutate(ts)
				}
				a.check(a.bus.Multicast(a.ids[j], a.ids[:1], network.KindVRF, consensus.EncodeRoundTickets(a.round, ts)))
			}
			_, err := a.try(0, a.at(DeadlineElect))
			if !errors.Is(err, consensus.ErrBadTicket) || !strings.Contains(err.Error(), "tickets from "+string(tc.wantFrom)+": "+tc.want) {
				t.Fatalf("Step() error = %v, want ErrBadTicket from %s: %s", err, tc.wantFrom, tc.want)
			}
		})
	}
}

// TestRoundElectReportsLeader: the election is the one place its outcome
// is reported, so both drivers emit the same thing — each governor,
// under its own ID, names the node it elected; a failed election
// reports nothing.
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
	if _, err := a.try(0, a.at(DeadlineElect)); !errors.Is(err, consensus.ErrIncompleteElection) {
		t.Fatalf("Step() error = %v, want ErrIncompleteElection", err)
	}
	for _, e := range a.log.Events() {
		if e.Type == events.TypeLeaderElected && e.Round == a.round {
			t.Fatalf("a failed election reported a leader: %+v", e)
		}
	}
}

// TestRoundElectVerifiesOneBatch: each governor looks every filed
// ticket up in its signer's verdict memo exactly once, and a forged batch
// fails the election naming its sender.
func TestRoundElectVerifiesOneBatch(t *testing.T) {
	a := newAlliance(t, nil)
	lookups := func() int64 {
		hits, misses := crypto.VerifyStats()
		return hits + misses
	}
	a.open()
	for j := range a.govs {
		filed := int64(0)
		for _, s := range a.govs[j].electing {
			filed += int64(s)
		}
		before := lookups()
		a.step(j, a.at(DeadlineElect))
		if n := lookups() - before; n != filed {
			t.Fatalf("governor %d elected with %d ticket lookups, want %d", j, n, filed)
		}
	}

	// Governor 0 gets governor 2's batch made over the wrong head.
	a.bus.SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		return m.Kind == network.KindVRF && m.From == a.ids[2] && to == a.ids[0]
	})
	a.open()
	a.bus.SetDropFunc(nil)
	forged := consensus.MakeTickets(a.govs[2].cfg.Member.PrivateKey, crypto.Sum([]byte("elsewhere")), a.round, 2, 1)
	a.check(a.bus.Multicast(a.ids[2], a.ids[:1], network.KindVRF, consensus.EncodeRoundTickets(a.round, forged)))
	_, err := a.try(0, a.at(DeadlineElect))
	if !errors.Is(err, consensus.ErrBadTicket) || !strings.Contains(err.Error(), "tickets from governor/2") {
		t.Fatalf("Step() error = %v, want ErrBadTicket naming governor/2", err)
	}
}

// onDisk is a newAlliance configure that keeps every governor's replica
// under dir.
func onDisk(dir string) func(j int, cfg *GovernorConfig) {
	return func(_ int, cfg *GovernorConfig) { cfg.StateDir = dir }
}

// TestRoundCheckpointCadence: a round's end snapshots once the chain has
// grown SnapshotEvery blocks past the last snapshot, and the end of a
// round that committed nothing, at an unchanged height, writes none.
func TestRoundCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	a := newAlliance(t, func(_ int, cfg *GovernorConfig) { cfg.StateDir, cfg.SnapshotEvery = dir, 2 })
	snapshots := a.reg.Counter("ledger.snapshots_total")
	for round, want := range []int64{0, 3, 3, 6} {
		a.runRound()
		a.end()
		if got := snapshots.Value(); got != want {
			t.Fatalf("after round %d: ledger.snapshots_total = %d, want %d", round+1, got, want)
		}
	}
	a.bus.SetDropFunc(func(m network.Message, _ identity.NodeID) bool { return m.Kind == network.KindBlock })
	a.open()
	a.propose(a.elect(0, 1, 2))
	a.end()
	if got, h := snapshots.Value(), a.govs[0].Store().Height(); got != 6 || h != 4 {
		t.Fatalf("a round that committed nothing: ledger.snapshots_total = %d at height %d, want 6 at 4", got, h)
	}
}

// TestRoundCheckpointRestoreRoundTrip: Checkpoint, Close, build a second
// governor over the same StateDir — reputation, stakes and next nonces
// come back bit for bit, with no call but the constructor.
func TestRoundCheckpointRestoreRoundTrip(t *testing.T) {
	open := onDisk(t.TempDir())
	a := newAlliance(t, open)
	a.check(a.govs[1].TransferStake(0, 1, a.bus))
	a.runRound()
	a.stake()
	a.check(a.govs[0].Table().RecordForgery(0))
	want := a.govs[0].Table().Snapshot()
	fresh, err := reputation.NewTable(a.govs[0].cfg.Roster.Topology, reputation.DefaultParams())
	a.check(err)
	if bytes.Equal(fresh.Snapshot(), want) {
		t.Fatal("a fresh table already equals the checkpointed one; test vacuous")
	}
	a.check(a.govs[0].Checkpoint(nil, true))
	a.check(a.govs[0].Close())

	b := newAlliance(t, open)
	if !bytes.Equal(b.govs[0].Table().Snapshot(), want) {
		t.Fatal("reputation changed across checkpoint and restart")
	}
	if got := fmt.Sprint(b.govs[0].Stakes(), b.govs[0].nextNonce); got != "[2 1 1] [0 1 0]" {
		t.Fatalf("restored stakes and next nonces %s, want [2 1 1] [0 1 0]", got)
	}
}

// TestReplicaCorruptCheckpointFailsNewGovernor: a checkpoint that does
// not decode fails NewGovernor with an error naming the governor, and
// the replica it opened is closed again.
func TestReplicaCorruptCheckpointFailsNewGovernor(t *testing.T) {
	dir := t.TempDir()
	a := newAlliance(t, onDisk(dir))
	a.runRound() // gives the replica an open chain segment
	cfg := a.govs[0].cfg
	for _, g := range a.govs {
		a.check(g.Checkpoint(nil, false))
		a.check(g.Close())
	}
	fs, err := ledger.OpenFileStore(filepath.Join(dir, "governor-0.chain"))
	a.check(err)
	_, err = fs.WriteSnapshot([]byte("not a governor state"))
	a.check(err)
	a.check(fs.Close())

	before := openFiles(t)
	if _, err := NewGovernor(cfg); err == nil || !strings.Contains(err.Error(), "governor/0") {
		t.Fatalf("NewGovernor() over a corrupt checkpoint = %v, want an error naming governor/0", err)
	}
	if after := openFiles(t); after != before {
		t.Fatalf("%d open files after the failed NewGovernor, %d before: its replica was left open", after, before)
	}
}

// openFiles counts this process's open file descriptors; it skips the
// test where /proc/self/fd does not exist.
func openFiles(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// TestReplicaCloseTwice: Close is idempotent, on disk and in memory.
func TestReplicaCloseTwice(t *testing.T) {
	for _, dir := range []string{t.TempDir(), ""} {
		a := newAlliance(t, onDisk(dir))
		a.runRound()
		for i := 0; i < 2; i++ {
			if err := a.govs[0].Close(); err != nil {
				t.Fatalf("StateDir %q: Close() #%d = %v", dir, i+1, err)
			}
		}
	}
}

// TestReplicaCadenceNeedsStateDir: a snapshot cadence or segment size
// without a directory to apply it to is refused, not ignored.
func TestReplicaCadenceNeedsStateDir(t *testing.T) {
	a := newAlliance(t, nil)
	for _, set := range []func(*GovernorConfig){
		func(cfg *GovernorConfig) { cfg.SnapshotEvery = 2 },
		func(cfg *GovernorConfig) { cfg.SegmentBytes = 512 },
	} {
		cfg := a.govs[0].cfg
		set(&cfg)
		if _, err := NewGovernor(cfg); err == nil || !strings.Contains(err.Error(), "state directory") {
			t.Fatalf("SnapshotEvery %d, SegmentBytes %d, no StateDir: NewGovernor() = %v, want an error naming the state directory",
				cfg.SnapshotEvery, cfg.SegmentBytes, err)
		}
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
	for _, r := range a.govs {
		a.check(r.Ingest(msgs))
	}
	for len(pending) > 0 {
		if a.round == 3 {
			t.Fatalf("%d argued transactions still uncommitted after 3 rounds", len(pending))
		}
		a.runRound()
		leader := a.govs[0].leader
		block := a.head(leader)
		if len(block.Records) != min(limit, len(pending)) {
			t.Fatalf("round %d block has %d records, want %d", a.round, len(block.Records), min(limit, len(pending)))
		}
		for _, rec := range block.Records {
			if rec.Status != tx.StatusValid || !pending[rec.Signed.ID()] {
				t.Fatalf("round %d committed %+v, want a pending re-validation", a.round, rec)
			}
			delete(pending, rec.Signed.ID())
		}
		a.down[leader] = true // the next round goes to a governor that has not led
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
	if _, err := a.try(follower, a.at(DeadlineElect)); !errors.Is(err, ledger.ErrBlockTooLarge) {
		t.Fatalf("adopting a %d-record block with b_limit %d = %v, want ErrBlockTooLarge", len(records), limit, err)
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
	initial := a.govs[0].Stakes()
	a.open()
	liar := a.elect(0, 1, 2)
	a.propose(liar)
	for j := range a.govs {
		a.adopt(j)
	}
	payer, payee := (liar+1)%3, (liar+2)%3
	a.govs[liar].CorruptNextStakeProposal()
	a.check(a.govs[payer].TransferStake(payee, 1, a.bus))
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
	for j, r := range a.govs {
		if r.Stakes()[liar] != 0 || !slices.Equal(r.stakes, initial) || r.StakeBlock() != nil {
			t.Fatalf("governor %d: stakes %v (committed %v) after expelling governor %d", j, r.Stakes(), r.stakes, liar)
		}
	}

	// The next election excludes the liar; its leader commits the transfer.
	a.open()
	leader := a.elect(0, 1, 2)
	if leader == liar {
		t.Fatalf("expelled governor %d led round %d", liar, a.round)
	}
	a.propose(leader)
	for j := range a.govs {
		a.adopt(j)
	}
	a.stake()
	want := slices.Clone(initial)
	want[payer]--
	want[payee]++
	for j, r := range a.govs {
		if sb := r.StakeBlock(); sb == nil || sb.Round != a.round || !slices.Equal(r.stakes, want) || r.nextNonce[payer] != 1 {
			t.Fatalf("governor %d: committed %v, next nonces %v; want %v and payer %d at nonce 1", j, r.stakes, r.nextNonce, want, payer)
		}
	}

	replayed := consensus.SignStakeTx(payer, payee, 1, 0, a.govs[payer].cfg.Member.PrivateKey)
	a.check(a.bus.Multicast(a.ids[payer], a.ids, network.KindStakeTx, consensus.EncodeStakeTx(replayed)))
	a.runRound()
	if n := a.stakeIgnored("stale_nonce"); n != 3 {
		t.Fatalf("replayed transfer frame: stale_nonce = %d, want 3", n)
	}
	leader = a.govs[0].leader
	key := a.govs[leader].cfg.Member.PrivateKey
	p := consensus.ResignProposal(consensus.StateProposal{Round: a.round, Leader: leader, NewState: want,
		Txs: []consensus.StakeTx{replayed}}, key)
	a.check(a.bus.Multicast(a.ids[leader], a.ids, network.KindStakeState, consensus.EncodeProposal(p)))
	a.stake()
	for j, r := range a.govs {
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
	a.check(a.govs[1].TransferStake(0, 2, a.bus))
	if err := a.govs[1].TransferStake(2, 1, a.bus); !errors.Is(err, consensus.ErrInsufficientStake) {
		t.Fatalf("second transfer error = %v, want ErrInsufficientStake", err)
	}
	over := consensus.SignStakeTx(0, 1, 5, 0, a.govs[0].cfg.Member.PrivateKey)
	a.check(a.bus.Multicast("collector/0", a.ids, network.KindStakeTx, consensus.EncodeStakeTx(over)))
	a.runRound()
	a.stake()
	if n := a.stakeIgnored("insufficient"); n != 1+3 {
		t.Fatalf("refused transfer and foreign overdraft: insufficient = %d, want 1+3", n)
	}
	for j, r := range a.govs {
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
	for j := range a.govs {
		a.adopt(j)
	}
	other := (leader + 1) % 3
	key := a.govs[other].cfg.Member.PrivateKey
	forged := consensus.ResignProposal(consensus.StateProposal{Round: a.round, Leader: leader, NewState: []uint64{9, 9, 9}}, key)
	a.check(a.bus.Multicast(a.ids[other], a.ids, network.KindStakeState, consensus.EncodeProposal(forged)))
	framed := consensus.AccuseLeader(other, forged, errors.New("framed"), key)
	a.check(a.bus.Multicast(a.ids[other], a.ids, network.KindEvidence, consensus.EncodeEvidence(framed)))
	a.check(a.govs[other].TransferStake(leader, 1, a.bus))
	a.stake()
	if n := a.stakeIgnored("bad_sig"); n != 2*3 {
		t.Fatalf("forged proposal and its evidence: bad_sig = %d, want 2*3", n)
	}
	committed := *a.govs[other].proposal
	for j, r := range a.govs {
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
	for j, r := range a.govs {
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
	victim := (a.govs[0].leader + 1) % 3
	var late []network.Message
	a.bus.SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		if m.Kind == network.KindStakeBlock && to == a.ids[victim] {
			late = append(late, m)
			return true
		}
		return false
	})
	a.check(a.govs[1].TransferStake(0, 1, a.bus))
	for step := 0; step < 4; step++ {
		for j := range a.govs {
			a.step(j, a.at(DeadlineElect))
		}
	}
	a.bus.SetDropFunc(nil)
	if len(late) != 1 || a.govs[victim].StakeBlock() != nil || a.govs[(victim+1)%3].StakeBlock() == nil {
		t.Fatalf("%d stake blocks held back; the victim should lack the one the others applied", len(late))
	}
	a.check(a.bus.Multicast(late[0].From, a.ids[victim:victim+1], network.KindStakeBlock, late[0].Payload))
	a.runRound() // the victim files it in the next round's first Step, before screening
	for j, r := range a.govs {
		if got := fmt.Sprint(r.Stakes(), r.electing); got != "[2 1 1] [2 1 1]" {
			t.Fatalf("governor %d stakes and election stakes %s, want [2 1 1] [2 1 1]", j, got)
		}
	}
}

// TestRoundTicketLookahead: governors are not phase-locked, so a peer
// that opened round r+1 first sends its batch to a governor still in
// round r, here at its last instant. The batch is kept and becomes round
// r+1's when that governor opens it; a second one from the same peer is
// a duplicate, and batches for any other round are stale.
func TestRoundTicketLookahead(t *testing.T) {
	a := newAlliance(t, nil)
	a.runRound()
	a.round++
	for _, j := range []int{1, 2} {
		a.step(j, a.at(DeadlineScreen))
	}
	for _, junk := range [][]byte{
		consensus.EncodeRoundTickets(a.round, nil),   // duplicate of governor/1's round-2 batch
		consensus.EncodeRoundTickets(a.round+1, nil), // two rounds ahead
	} {
		a.check(a.bus.Multicast(a.ids[1], a.ids[:1], network.KindVRF, junk))
	}
	slow := a.govs[0]
	if p := a.step(0, testClock.At(a.round-1, 1)); p.Round != 1 || p.Phase != PhaseOver || !slow.nextFiled[1] || !slow.nextFiled[2] {
		t.Fatalf("governor/0 in round %d phase %d, peers' round-2 batches filed ahead %v; want round 1 over with both", p.Round, p.Phase, slow.nextFiled)
	}
	if p := a.step(0, a.at(DeadlineScreen)); p.Round != 2 || !slow.filed[1] || !slow.filed[2] {
		t.Fatalf("governor/0 in round %d with batches %v: opening round 2 dropped the peers' batches filed one round early", p.Round, slow.filed)
	}
	a.propose(a.elect(0, 1, 2))
	for j := range a.govs {
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
// nothing when empty and counts toward a round's uploads being in for
// its round and every earlier one; a batch whose signature fails does
// not count.
func TestRoundUploadsComplete(t *testing.T) {
	fx := newFixture(t, nil)
	r := fx.governor
	coll0, coll1 := fx.roster.Collectors[0], fx.roster.Collectors[1]
	ingest := func(msgs ...network.Message) {
		t.Helper()
		if err := r.Ingest(msgs); err != nil {
			t.Fatal(err)
		}
	}
	if r.uploadsIn(1) {
		t.Fatal("uploadsIn(1) before any upload")
	}
	if p, err := stepDue(fx.collectors[0], testClock.At(1, DeadlineUpload), nil, fx.bus); err != nil || p.Phase != PhaseOver {
		t.Fatalf("Step at the upload deadline with nothing filed = %+v, %v", p, err)
	}
	if got := fx.bus.Stats().SentByKind[network.KindCollectorBatch]; got != 1 {
		t.Fatalf("an empty drain sent %d batches, want 1", got)
	}
	ingest(fx.inbox.Receive()...)
	if st := fx.governor.Stats(); st.ForgeriesDetected != 0 || st.ReportsReceived != 0 || fx.governor.mempoolDepth() != 0 {
		t.Fatalf("empty batch: %+v, mempool %d; want nothing admitted or penalized", st, fx.governor.mempoolDepth())
	}
	if r.uploadsIn(1) {
		t.Fatal("uploadsIn(1) with collector/1's batch missing")
	}
	forgedSig := identity.Member{ID: coll1.ID, PrivateKey: coll0.PrivateKey}
	ingest(roundUploadMsg(t, forgedSig, coll1.ID, 1))
	if st := fx.governor.Stats(); st.ForgeriesDetected != 1 {
		t.Fatalf("bad-signature batch: %d penalties, want 1", st.ForgeriesDetected)
	}
	if r.uploadsIn(1) {
		t.Fatal("a batch that fails its signature counted toward uploadsIn(1)")
	}
	ingest(roundUploadMsg(t, coll1, coll1.ID, 1))
	if !r.uploadsIn(1) {
		t.Fatal("uploadsIn(1) false with both round-1 batches verified")
	}
	if r.uploadsIn(2) {
		t.Fatal("round-1 batches counted for round 2")
	}
	ingest(roundUploadMsg(t, coll0, coll0.ID, 3), roundUploadMsg(t, coll1, coll1.ID, 2))
	if !r.uploadsIn(2) {
		t.Fatal("uploadsIn(2) false with batches for round 2 and later")
	}
}

// TestVerifyMemoScope: a verdict is memoised on its signer's roster
// key. Within one alliance each filed ticket misses once, at the first
// governor to elect, and hits at every other, and the block misses
// once, at the first governor to adopt it. A second alliance built from
// the same seed in the same process holds key objects of its own, so
// its first round's tickets, the same bytes as the first alliance's,
// miss again. CI runs it at -cpu 1,4.
func TestVerifyMemoScope(t *testing.T) {
	var tickets [2][]byte
	for n := range tickets {
		a := newAlliance(t, nil)
		a.bus.SetDropFunc(func(m network.Message, _ identity.NodeID) bool {
			if m.Kind == network.KindVRF {
				tickets[n] = append(tickets[n], m.Payload...)
			}
			return false
		})
		a.open()
		filed := int64(0)
		for _, s := range a.govs[0].electing {
			filed += int64(s)
		}
		delta := func(step func()) (hits, misses int64) {
			h0, m0 := crypto.VerifyStats()
			step()
			h, m := crypto.VerifyStats()
			return h - h0, m - m0
		}
		leader := -1
		for j := range a.govs {
			want := int64(0) // misses: the first governor to elect checks every ticket
			if j == 0 {
				want = filed
			}
			hits, misses := delta(func() { leader = a.step(j, a.at(DeadlineElect)).Leader })
			if misses != want || hits != filed-want {
				t.Fatalf("alliance %d: governor %d elected with %d misses and %d hits of %d tickets, want %d misses",
					n, j, misses, hits, filed, want)
			}
		}
		a.propose(leader)
		var hits, misses int64
		for j := range a.govs {
			h, m := delta(func() { a.adopt(j) })
			hits, misses = hits+h, misses+m
		}
		if misses != 1 || hits != int64(len(a.govs))-2 {
			t.Fatalf("alliance %d: the block's adopters made %d misses and %d hits, want 1 and %d",
				n, misses, hits, len(a.govs)-2)
		}
	}
	if len(tickets[0]) == 0 || !bytes.Equal(tickets[0], tickets[1]) {
		t.Fatal("the two alliances filed different tickets")
	}
}
