package chaos_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repchain/internal/chaos"
	"repchain/internal/core"
	"repchain/internal/events"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

const (
	rounds = 8
	perRnd = 8
	healBy = 2 // liveness bound: rounds after FaultUntil within which a block must commit
)

var oracle = tx.ValidatorFunc(func(t tx.Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
})

func config(seed int64) core.Config {
	return core.Config{
		Spec:        identity.TopologySpec{Providers: 4, Collectors: 4, Degree: 2},
		Governors:   3,
		Params:      reputation.DefaultParams(),
		ArgueWindow: 16,
		MaxDelay:    2,
		Seed:        seed,
		Validator:   oracle,
		// The event log stays on through the whole fault matrix: events
		// must never perturb recovery or determinism. The capacity is
		// sized so a full run never wraps — runTrace asserts
		// Dropped() == 0, making the canonical comparison below total
		// rather than windowed.
		EventCapacity: 8192,
	}
}

// trace is the observable outcome of one chaos run: a per-round
// commit/abort record, each governor's final reputation snapshot, and
// each replica's final head. Two runs of the same (seed, plan) must
// produce equal traces at any GOMAXPROCS.
type trace struct {
	rounds []string
	reps   [][]byte
	heads  []string
	// events is the canonical merged event stream; it must be
	// byte-identical across GOMAXPROCS settings.
	events string
}

// canonicalEvents renders each node's event subsequence in emission
// order (each node is single-threaded, so its order is deterministic)
// with the globally-interleaved Seq and the always-zero Wall stripped,
// then concatenates the nodes sorted by name.
func canonicalEvents(evs []events.Event) string {
	byNode := make(map[string][]string)
	for _, e := range evs {
		var b strings.Builder
		fmt.Fprintf(&b, "%s|%s|%d", e.Type, e.Trace, e.Round)
		for _, a := range e.Attrs {
			fmt.Fprintf(&b, "|%s=%s", a.Key, a.Value)
		}
		byNode[e.Node] = append(byNode[e.Node], b.String())
	}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "## %s\n%s\n", n, strings.Join(byNode[n], "\n"))
	}
	return b.String()
}

// runTrace executes an 8-round chaos run and asserts the in-run safety
// properties: only recoverable aborts, no forked prefix between any
// two replicas, every chain verifiable, and a commit within healBy
// rounds of the faults clearing.
func runTrace(t *testing.T, plan chaos.Plan, seed int64, procs int) trace {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	e, err := core.New(config(seed))
	if err != nil {
		t.Fatalf("New() error = %v", err)
	}
	defer e.Close()
	inj := chaos.New(e, plan, seed)

	var tr trace
	providers := e.Roster().Topology.Providers()
	healed := -1
	for r := 0; r < rounds; r++ {
		if err := inj.BeginRound(uint64(r)); err != nil {
			t.Fatalf("BeginRound(%d): %v", r, err)
		}
		for i := 0; i < perRnd; i++ {
			valid := i%4 != 3
			b := byte(0)
			if valid {
				b = 1
			}
			payload := []byte{b, byte(i), byte(r)}
			if _, err := e.SubmitTx(i%providers, "chaos/tx", payload, valid); err != nil {
				t.Fatalf("SubmitTx round %d: %v", r, err)
			}
		}
		res, err := e.RunRound()
		switch {
		case err == nil:
			tr.rounds = append(tr.rounds, fmt.Sprintf("commit:%d:%x", res.Serial, res.Block.Hash()))
			if r >= int(plan.FaultUntil) && healed < 0 {
				healed = r
			}
		case errors.Is(err, core.ErrRoundAborted):
			tr.rounds = append(tr.rounds, "abort")
		default:
			t.Fatalf("round %d: unrecoverable error %v", r, err)
		}
	}
	if healed < 0 || healed >= int(plan.FaultUntil)+healBy {
		t.Fatalf("no block committed within %d rounds of faults clearing (rounds: %v)", healBy, tr.rounds)
	}

	// No fork: every pair of replicas agrees on their common prefix,
	// and every chain replays cleanly.
	for j := 0; j < e.Governors(); j++ {
		if err := ledger.VerifyChain(e.Governor(j).Store()); err != nil {
			t.Fatalf("governor %d chain corrupt: %v", j, err)
		}
	}
	for a := 0; a < e.Governors(); a++ {
		for b := a + 1; b < e.Governors(); b++ {
			sa, sb := e.Governor(a).Store(), e.Governor(b).Store()
			min := sa.Height()
			if h := sb.Height(); h < min {
				min = h
			}
			for s := uint64(1); s <= min; s++ {
				ba, err := sa.Get(s)
				if err != nil {
					t.Fatal(err)
				}
				bb, err := sb.Get(s)
				if err != nil {
					t.Fatal(err)
				}
				if ba.Hash() != bb.Hash() {
					t.Fatalf("fork: governors %d and %d disagree at serial %d", a, b, s)
				}
			}
		}
	}

	// The ring may not have wrapped, or the canonical comparison and
	// the replay below would silently run on a truncated window.
	if d := e.Events().Dropped(); d != 0 {
		t.Fatalf("event ring dropped %d events; raise EventCapacity", d)
	}
	tr.events = canonicalEvents(e.Events().Events())

	// The event log alone must reconstruct every governor's reputation
	// table: replay each governor's reputation.* subsequence into a
	// fresh table and demand snapshot equality with the live one.
	for j := 0; j < e.Governors(); j++ {
		fresh, err := reputation.NewTable(e.Roster().Topology, reputation.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		gid := string(e.Governor(j).ID())
		if err := events.ReplayReputation(e.Events().Events(), gid, fresh); err != nil {
			t.Fatalf("governor %d event replay: %v", j, err)
		}
		if !bytes.Equal(fresh.Snapshot(), e.Governor(j).Table().Snapshot()) {
			t.Fatalf("governor %d: replayed reputation table diverges from the live one", j)
		}
	}

	for j := 0; j < e.Governors(); j++ {
		tr.reps = append(tr.reps, e.Governor(j).Table().Snapshot())
		st := e.Governor(j).Store()
		head := "genesis"
		if st.Height() > 0 {
			b, err := st.Get(st.Height())
			if err != nil {
				t.Fatal(err)
			}
			head = fmt.Sprintf("%x", b.Hash())
		}
		tr.heads = append(tr.heads, fmt.Sprintf("%d:%s", st.Height(), head))
	}
	return tr
}

// TestChaosMatrix is the acceptance matrix: seeds {1, 7, 42} × the
// five standard fault plans, each run at GOMAXPROCS 1 and 4. Per (seed,
// plan) the two runs must agree byte-for-byte on the round-by-round
// commit/abort pattern, every block hash, every replica head, every
// governor's serialized reputation table, and the canonical event
// stream.
func TestChaosMatrix(t *testing.T) {
	for _, plan := range chaos.Plans() {
		for _, seed := range []int64{1, 7, 42} {
			plan, seed := plan, seed
			t.Run(fmt.Sprintf("%s/seed=%d", plan.Name, seed), func(t *testing.T) {
				t1 := runTrace(t, plan, seed, 1)
				t4 := runTrace(t, plan, seed, 4)
				for r := range t1.rounds {
					if t1.rounds[r] != t4.rounds[r] {
						t.Fatalf("round %d diverges across GOMAXPROCS: %q vs %q", r, t1.rounds[r], t4.rounds[r])
					}
				}
				for j := range t1.heads {
					if t1.heads[j] != t4.heads[j] {
						t.Fatalf("governor %d head diverges across GOMAXPROCS: %s vs %s", j, t1.heads[j], t4.heads[j])
					}
				}
				for j := range t1.reps {
					if !bytes.Equal(t1.reps[j], t4.reps[j]) {
						t.Fatalf("governor %d reputation snapshot diverges across GOMAXPROCS", j)
					}
				}
				if t1.events != t4.events {
					t.Fatal("canonical event stream diverges across GOMAXPROCS")
				}
			})
		}
	}
}

// TestPlansInjectFaults sanity-checks that each probabilistic plan
// actually exercises its fault family: a clean run would vacuously
// pass the matrix.
func TestPlansInjectFaults(t *testing.T) {
	check := func(plan chaos.Plan, stat func(e *core.Engine) int64) {
		t.Helper()
		e, err := core.New(config(42))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		inj := chaos.New(e, plan, 42)
		providers := e.Roster().Topology.Providers()
		for r := 0; r < rounds; r++ {
			if err := inj.BeginRound(uint64(r)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < perRnd; i++ {
				if _, err := e.SubmitTx(i%providers, "chaos/tx", []byte{1, byte(i), byte(r)}, true); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.RunRound(); err != nil && !errors.Is(err, core.ErrRoundAborted) {
				t.Fatal(err)
			}
		}
		if got := stat(e); got == 0 {
			t.Fatalf("plan %s injected no faults", plan.Name)
		}
	}
	check(chaos.Drop10(), func(e *core.Engine) int64 { return e.Bus().Stats().Dropped })
	check(chaos.DupReorder(), func(e *core.Engine) int64 { return e.Bus().Stats().Duplicated })
	check(chaos.PartitionThenHeal(), func(e *core.Engine) int64 { return e.Bus().Stats().PartitionDropped })
	check(chaos.CrashOneCollector(), func(e *core.Engine) int64 { return e.Bus().Stats().DownDropped })
	check(chaos.CrashOneGovernor(), func(e *core.Engine) int64 { return e.Bus().Stats().DownDropped })
}

// TestWindow pins the fault-window arithmetic the whole suite rests
// on: [FaultFrom, FaultUntil) is half-open.
func TestWindow(t *testing.T) {
	p := chaos.Plan{FaultFrom: 2, FaultUntil: 5}
	for r, want := range map[uint64]bool{0: false, 1: false, 2: true, 4: true, 5: false, 7: false} {
		if got := p.Window(r); got != want {
			t.Fatalf("Window(%d) = %v, want %v", r, got, want)
		}
	}
}
