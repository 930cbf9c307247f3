package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repchain/internal/consensus"
	"repchain/internal/core"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/network"
	"repchain/internal/node"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

var testOracle = tx.ValidatorFunc(func(t tx.Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
})

// freePorts reserves n distinct loopback ports by listening and
// closing.
func freePorts(t testing.TB, n int) []int {
	t.Helper()
	listeners := make([]net.Listener, 0, n)
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		addr, ok := ln.Addr().(*net.TCPAddr)
		if !ok {
			t.Fatal("not a TCP address")
		}
		ports = append(ports, addr.Port)
	}
	for _, ln := range listeners {
		if err := ln.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return ports
}

// testDeployment builds a loopback deployment with fresh ports.
func testDeployment(t testing.TB, providers, collectors, degree, governors int) *Deployment {
	t.Helper()
	topo, err := identity.NewRegularTopology(identity.TopologySpec{
		Providers: providers, Collectors: collectors, Degree: degree,
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, crypto.SeedSize)
	seed[0] = 0x42
	roster, err := identity.NewRoster(topo, governors, seed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(nil, roster, "127.0.0.1", 0)
	if err != nil {
		t.Fatal(err)
	}
	ports := freePorts(t, len(d.Nodes))
	for i := range d.Nodes {
		d.Nodes[i].Addr = fmt.Sprintf("127.0.0.1:%d", ports[i])
	}
	return d
}

// mustRoster is d.Roster for a deployment the test built.
func mustRoster(t testing.TB, d *Deployment) *identity.Roster {
	t.Helper()
	r, err := d.Roster()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDeploymentJSONRoundTrip(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var got Deployment
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate() error = %v", err)
	}
	r := mustRoster(t, &got)
	if len(r.Providers) != 2 || len(r.Collectors) != 2 || len(r.Governors) != 2 {
		t.Fatalf("roster sizes %d/%d/%d", len(r.Providers), len(r.Collectors), len(r.Governors))
	}
}

func TestDeploymentValidateRejects(t *testing.T) {
	base := testDeployment(t, 2, 2, 1, 2)
	tests := []struct {
		name   string
		mutate func(*Deployment)
		// raw edits the file's bytes after mutate.
		raw func([]byte) []byte
		ok  bool
	}{
		{name: "no nodes", mutate: func(d *Deployment) { d.Nodes = nil }},
		{name: "duplicate id", mutate: func(d *Deployment) { d.Nodes[1].ID = d.Nodes[0].ID }},
		{name: "missing addr", mutate: func(d *Deployment) { d.Nodes[0].Addr = "" }},
		{name: "bad key hex", mutate: func(d *Deployment) { d.Nodes[0].PublicKey = "zz" }},
		{name: "no governors", mutate: func(d *Deployment) {
			var keep []NodeSpec
			for _, n := range d.Nodes {
				if n.Role != "governor" {
					keep = append(keep, n)
				}
			}
			d.Nodes = keep
		}},
		{name: "bad link", mutate: func(d *Deployment) { d.Links[0] = []int{99} }},
		{name: "link count", mutate: func(d *Deployment) { d.Links = d.Links[:1] }},
		// The roster's own rules: a known role, an ID naming the role and
		// index, and each role's indices exactly 0…k−1.
		{name: "unknown role", mutate: func(d *Deployment) { d.Nodes[4].Role = "observer" }},
		{name: "id not role/index", mutate: func(d *Deployment) { d.Nodes[2].ID = "collector/7" }},
		{name: "index gap", mutate: func(d *Deployment) { d.Nodes[3].Index, d.Nodes[3].ID = 5, "collector/5" }},
		// A file written before the certificate authority was removed
		// still loads: the two fields are ignored.
		{name: "legacy certificate fields", ok: true, raw: func(b []byte) []byte {
			b = bytes.Replace(b, []byte(`{"nodes":`), []byte(`{"root_public_key":"ab","nodes":`), 1)
			return bytes.ReplaceAll(b, []byte(`"public_key":`), []byte(`"cert_signature":"cd","public_key":`))
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data, err := json.Marshal(base)
			if err != nil {
				t.Fatal(err)
			}
			var d Deployment
			if err := json.Unmarshal(data, &d); err != nil {
				t.Fatal(err)
			}
			if tt.mutate != nil {
				tt.mutate(&d)
			}
			if data, err = json.Marshal(&d); err != nil {
				t.Fatal(err)
			}
			if tt.raw != nil {
				data = tt.raw(data)
			}
			path := filepath.Join(t.TempDir(), "roster.json")
			if err := os.WriteFile(path, data, 0o600); err != nil {
				t.Fatal(err)
			}
			_, err = LoadDeployment(path)
			if tt.ok && err != nil {
				t.Fatalf("LoadDeployment() error = %v", err)
			}
			if !tt.ok && !errors.Is(err, ErrBadDeployment) {
				t.Fatalf("LoadDeployment() error = %v, want ErrBadDeployment", err)
			}
		})
	}
}

// TestDeploymentRosterParsedOnce: every Roster call on a built or
// loaded deployment returns the one roster, so nodes run from it share
// their keys' verification tables; a literal still parses its fields.
func TestDeploymentRosterParsedOnce(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	if mustRoster(t, d) != mustRoster(t, d) {
		t.Fatal("NewDeployment's Roster() differs between calls")
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "roster.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDeployment(path)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRoster(t, loaded)
	if r != mustRoster(t, loaded) {
		t.Fatal("LoadDeployment's Roster() differs between calls")
	}
	literal := &Deployment{Nodes: loaded.Nodes, Links: loaded.Links}
	if lr := mustRoster(t, literal); lr == r || !slices.EqualFunc(lr.Governors, r.Governors, func(a, b identity.Member) bool {
		return a.ID == b.ID && a.PublicKey.Equal(b.PublicKey)
	}) {
		t.Fatal("a literal's Roster() is not a fresh parse of the same members")
	}
}

func TestDeploymentAccessors(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	spec, err := d.Node("governor/1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Role != "governor" || spec.Index != 1 {
		t.Fatalf("Node() = %+v", spec)
	}
	if _, err := d.Node("ghost"); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("Node(ghost) error = %v", err)
	}
	r := mustRoster(t, d)
	if len(r.Governors) != 2 || r.Governors[1].ID != "governor/1" || r.Topology.Providers() != 2 || r.Topology.Collectors() != 2 {
		t.Fatalf("Roster() = %+v", r)
	}
	if _, ok := r.Member("governor/1", identity.RoleGovernor); !ok {
		t.Fatal("Roster() lacks governor/1")
	}
}

// FuzzDeploymentRoster writes arbitrary bytes as a deployment file and
// loads it. Either LoadDeployment refuses the file, or its roster
// resolves every node under its role and index and links exactly the
// pairs Links lists. Nothing panics.
func FuzzDeploymentRoster(f *testing.F) {
	valid, err := json.Marshal(testDeployment(f, 2, 2, 1, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"nodes":[{"id":"governor/0","role":"governor","index":0,"addr":"a","public_key":"00"}],"links":[]}`))
	f.Add([]byte(`{"nodes":[],"links":[[0,0]]}`))
	// A worker runs its inputs one at a time, so they share one file.
	path := filepath.Join(f.TempDir(), "roster.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		d, err := LoadDeployment(path)
		if err != nil {
			return
		}
		r, err := d.Roster()
		if err != nil {
			t.Fatalf("loaded deployment has no roster: %v", err)
		}
		for _, n := range d.Nodes {
			if m, ok := r.Member(identity.NodeID(n.ID), identity.RoleNamed(n.Role)); !ok || m.Index != n.Index {
				t.Fatalf("node %q (%s %d) resolves to %+v, %v", n.ID, n.Role, n.Index, m, ok)
			}
		}
		for k := range r.Topology.Providers() {
			for c := range r.Topology.Collectors() {
				if r.Linked(k, c) != slices.Contains(d.Links[k], c) {
					t.Fatalf("Linked(%d, %d) = %v, links %v", k, c, r.Linked(k, c), d.Links[k])
				}
			}
		}
	})
}

func TestEndpointSendReceive(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	a, err := NewEndpoint(d, "governor/0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewEndpoint(d, "governor/1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	if err := a.Send("governor/1", "test", []byte("ping")); err != nil {
		t.Fatalf("Send() error = %v", err)
	}
	frames := waitFrames(t, b, 1)
	if frames[0].From != "governor/0" || string(frames[0].Payload) != "ping" {
		t.Fatalf("frame = %+v", frames[0])
	}
}

func waitFrames(t testing.TB, ep *Endpoint, n int) []Frame {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	var out []Frame
	for time.Now().Before(deadline) {
		out = append(out, ep.Receive()...)
		if len(out) >= n {
			return out
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d frames, have %d", n, len(out))
	return nil
}

// TestEndpointArrivalWakes: a driver blocked on Arrived wakes on a
// Send; any number of deliveries leave at most one wake pending; the
// Receive after a wake returns every frame delivered.
func TestEndpointArrivalWakes(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	a, err := NewEndpoint(d, "governor/0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewEndpoint(d, "governor/1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	woke := make(chan struct{})
	go func() {
		<-b.Arrived()
		close(woke)
	}()
	select {
	case <-woke:
		t.Fatal("woke with no frame delivered")
	case <-time.After(20 * time.Millisecond):
	}
	if err := a.Send("governor/1", "test", []byte{0}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-woke:
	case <-time.After(3 * time.Second):
		t.Fatal("a blocked waiter did not wake on a Send")
	}
	if got := len(b.Receive()); got != 1 {
		t.Fatalf("Receive after the wake returned %d frames, want 1", got)
	}

	const n = 50
	for i := 1; i <= n; i++ {
		if err := a.Send("governor/1", "test", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	received := b.Metrics().Counter("transport.frames_received")
	for deadline := time.Now().Add(3 * time.Second); received.Value() < 1+n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames arrived", received.Value(), 1+n)
		}
	}
	select {
	case <-b.Arrived():
	default:
		t.Fatalf("no wake pending after %d deliveries", n)
	}
	select {
	case <-b.Arrived():
		t.Fatalf("%d deliveries left more than one wake pending", n)
	default:
	}
	if got := len(b.Receive()); got != n {
		t.Fatalf("Receive after the wake returned %d frames, want %d", got, n)
	}
}

func TestEndpointUnknownPeer(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	a, err := NewEndpoint(d, "governor/0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if err := a.Send("ghost", "k", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("Send(ghost) error = %v", err)
	}
}

func TestEndpointClosedSend(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	a, err := NewEndpoint(d, "governor/0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("governor/1", "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send() after Close error = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double Close() error = %v", err)
	}
}

// startNodes runs RunNode for every node of base.Deployment but skip,
// each in its own goroutine, and returns a wait that joins them, fails
// the test on the first node error and returns the reports by node.
func startNodes(t *testing.T, base RuntimeConfig, skip identity.NodeID) (wait func() map[string]Report) {
	t.Helper()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		reports = make(map[string]Report)
		failed  error
	)
	for _, spec := range base.Deployment.Nodes {
		if identity.NodeID(spec.ID) == skip {
			continue
		}
		cfg := base
		cfg.ID = identity.NodeID(spec.ID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := RunNode(cfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && failed == nil {
				failed = fmt.Errorf("node %s: %w", cfg.ID, err)
			}
			reports[string(cfg.ID)] = r
		}()
	}
	return func() map[string]Report {
		t.Helper()
		wg.Wait()
		if failed != nil {
			t.Fatal(failed)
		}
		return reports
	}
}

// TestRuntimeFullAlliance runs a whole alliance over loopback TCP and
// checks every governor reaches the same height with the providers'
// valid transactions settled, and that each provider timed its signing
// and its block intake once a round.
func TestRuntimeFullAlliance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock run")
	}
	d := testDeployment(t, 2, 2, 2, 2)
	// Generous round duration: the test must tolerate -race overhead
	// and parallel package execution without violating the synchrony
	// assumption the runtime is built on.
	clock := Clock{Epoch: time.Now().Add(500 * time.Millisecond), Round: 800 * time.Millisecond}
	const rounds = 4
	base := RuntimeConfig{
		Deployment: d,
		Clock:      clock,
		Rounds:     rounds,
		Params:     reputation.DefaultParams(),
		Validator:  testOracle,
		TxPerRound: 3,
		ValidFrac:  0.8,
		Seed:       5,
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		reports = make(map[string]Report)
		failed  error
	)
	collectorRegs, providerRegs := make(map[string]*metrics.Registry), make(map[string]*metrics.Registry)
	for _, spec := range d.Nodes {
		cfg := base
		cfg.ID = identity.NodeID(spec.ID)
		// A registry of its own, so a collector's frames and a provider's
		// stages can be counted.
		switch spec.Role {
		case "collector":
			cfg.Metrics = metrics.NewRegistry()
			collectorRegs[spec.ID] = cfg.Metrics
		case "provider":
			cfg.Metrics = metrics.NewRegistry()
			providerRegs[spec.ID] = cfg.Metrics
		}
		wg.Add(1)
		go func(id string, cfg RuntimeConfig) {
			defer wg.Done()
			r, err := RunNode(cfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && failed == nil {
				failed = fmt.Errorf("node %s: %w", id, err)
				return
			}
			reports[id] = r
		}(spec.ID, cfg)
	}
	wg.Wait()
	if failed != nil {
		t.Fatal(failed)
	}
	for id, r := range reports {
		if r.Rounds != rounds {
			t.Fatalf("%s completed %d rounds, want %d", id, r.Rounds, rounds)
		}
	}
	h0 := reports["governor/0"].Height
	h1 := reports["governor/1"].Height
	if h0 != uint64(rounds) || h1 != uint64(rounds) {
		t.Fatalf("governor heights %d/%d, want %d", h0, h1, rounds)
	}
	submitted := reports["provider/0"].Submitted + reports["provider/1"].Submitted
	if submitted != 2*rounds*base.TxPerRound {
		t.Fatalf("submitted = %d", submitted)
	}
	// Every transaction goes to both collectors and both upload it, but
	// as one batch per round: a collector sends one frame per governor
	// per round, however many labels the round carried.
	uploads := 0
	for id, reg := range collectorRegs {
		uploads += reports[id].Uploads
		if reports[id].Uploads != submitted {
			t.Errorf("%s uploaded %d labels, want %d", id, reports[id].Uploads, submitted)
		}
		if frames := reg.Counter("transport.frames_sent").Value(); frames > 2*rounds {
			t.Errorf("%s sent %d frames, want at most one per governor per round (%d)", id, frames, 2*rounds)
		}
	}
	for _, id := range []string{"governor/0", "governor/1"} {
		if got := reports[id].Stats.ReportsReceived; got != uploads {
			t.Errorf("%s received %d reports, want the %d labels uploaded", id, got, uploads)
		}
	}
	for id, reg := range providerRegs {
		stages := reg.HistogramVec("round.stage_seconds", metrics.DefBuckets, "stage")
		for _, stage := range []string{"sign", "argue"} {
			if got := stages.With(stage).Count(); got != rounds {
				t.Errorf("%s: %d round.stage_seconds{stage=%q} samples, want one a round (%d)", id, got, stage, rounds)
			}
		}
	}
}

// TestRuntimeGovernorPersistence restarts a whole TCP alliance with
// StateDir set: governors must reload their chains and keep extending
// them.
func TestRuntimeGovernorPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock run")
	}
	stateDir := t.TempDir()
	runAlliance := func(d *Deployment, rounds int) map[string]Report {
		t.Helper()
		clock := Clock{Epoch: time.Now().Add(500 * time.Millisecond), Round: 800 * time.Millisecond}
		base := RuntimeConfig{
			Deployment: d,
			Clock:      clock,
			Rounds:     rounds,
			Params:     reputation.DefaultParams(),
			Validator:  testOracle,
			TxPerRound: 2,
			ValidFrac:  0.8,
			Seed:       6,
			StateDir:   stateDir,
			// Snapshot every round with tiny segments so the restart
			// also exercises snapshot recovery and pruning.
			SnapshotEvery: 1,
			SegmentBytes:  512,
		}
		return startNodes(t, base, "")()
	}

	d := testDeployment(t, 2, 2, 2, 2)
	first := runAlliance(d, 2)
	if first["governor/0"].Height != 2 {
		t.Fatalf("first run height = %d", first["governor/0"].Height)
	}
	// The cadence must have produced on-disk snapshots for every
	// governor.
	for _, gid := range []string{"governor-0", "governor-1"} {
		snaps, err := filepath.Glob(filepath.Join(stateDir, gid+".chain", "snapshot-*.snap"))
		if err != nil || len(snaps) == 0 {
			t.Fatalf("%s: no ledger snapshots after run 1 (err=%v)", gid, err)
		}
	}
	// Fresh ports for the restart (listeners from run 1 are closed,
	// but avoid TIME_WAIT flakes).
	ports := freePorts(t, len(d.Nodes))
	for i := range d.Nodes {
		d.Nodes[i].Addr = fmt.Sprintf("127.0.0.1:%d", ports[i])
	}
	second := runAlliance(d, 2)
	if got := second["governor/0"].Height; got != 4 {
		t.Fatalf("restarted alliance height = %d, want 4 (2 persisted + 2 new)", got)
	}
	if got := second["governor/1"].Height; got != 4 {
		t.Fatalf("governor/1 height = %d, want 4", got)
	}

	// A governor restarted without its peer restores its checkpoint,
	// misses the peer's ticket batch, and stops by that name; the
	// checkpoint its exit path writes is the restored table, bit for bit.
	checkpointed := func() []byte {
		fs, err := ledger.OpenFileStore(filepath.Join(stateDir, "governor-0.chain"))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = fs.Close() }()
		snap, _ := fs.LatestSnapshot()
		st, err := node.DecodeGovernorState(snap.App)
		if err != nil {
			t.Fatalf("governor/0 checkpoint: %v", err)
		}
		return st.Reputation
	}
	before := checkpointed()
	_, err := RunNode(RuntimeConfig{
		Deployment: d,
		ID:         "governor/0",
		Clock:      Clock{Epoch: time.Now(), Round: 200 * time.Millisecond},
		Rounds:     1,
		Params:     reputation.DefaultParams(),
		Validator:  testOracle,
		StateDir:   stateDir,
	})
	if !errors.Is(err, consensus.ErrIncompleteElection) {
		t.Fatalf("lone governor error = %v, want ErrIncompleteElection", err)
	}
	if !bytes.Equal(checkpointed(), before) {
		t.Fatal("reputation changed across checkpoint → restore → checkpoint")
	}
}

// TestRuntimeStakeTransfer: a stake transfer broadcast as a frame like
// any other commits on every governor of a TCP fleet, to the stake
// vector the in-process engine reaches from the same stakes and
// transfer, with one stake block; a restart with StateDir keeps the
// moved stakes. The test plays provider/0 and relays the payer's signed
// transfer from that endpoint.
func TestRuntimeStakeTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock run")
	}
	d := testDeployment(t, 2, 2, 2, 2)
	initial := []uint64{3, 2}
	var payerKey crypto.PrivateKey
	for i, n := range d.Nodes {
		if n.Role == "governor" {
			d.Nodes[i].Stake = initial[n.Index]
		}
		if n.ID == "governor/0" {
			key, err := n.PrivateKeyOf()
			if err != nil {
				t.Fatal(err)
			}
			payerKey = key
		}
	}
	transfer := consensus.EncodeStakeTx(consensus.SignStakeTx(0, 1, 2, 0, payerKey))
	stateDir := t.TempDir()
	run := func(rounds int, relay bool) map[string]Report {
		t.Helper()
		ep, err := NewEndpoint(d, "provider/0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep.Close() }()
		base := RuntimeConfig{
			Deployment: d,
			Clock:      Clock{Epoch: time.Now().Add(500 * time.Millisecond), Round: 800 * time.Millisecond},
			Rounds:     rounds,
			Params:     reputation.DefaultParams(),
			Validator:  testOracle,
			TxPerRound: 2,
			ValidFrac:  0.8,
			Seed:       7,
			StateDir:   stateDir,
		}
		wait := startNodes(t, base, "provider/0")
		for _, g := range mustRoster(t, d).Governors {
			for deadline := time.Now().Add(3 * time.Second); relay; time.Sleep(10 * time.Millisecond) {
				err := ep.Send(identity.NodeID(g.ID), network.KindStakeTx, transfer)
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("transfer never reached %s: %v", g.ID, err)
				}
			}
		}
		return wait()
	}
	checkpointed := func(j int) string {
		t.Helper()
		fs, err := ledger.OpenFileStore(filepath.Join(stateDir, fmt.Sprintf("governor-%d.chain", j)))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = fs.Close() }()
		snap, _ := fs.LatestSnapshot()
		st, err := node.DecodeGovernorState(snap.App)
		if err != nil {
			t.Fatalf("governor/%d checkpoint: %v", j, err)
		}
		return fmt.Sprint(st.Stakes, st.Nonces)
	}

	eng, err := core.New(core.Config{
		Spec:      identity.TopologySpec{Providers: 2, Collectors: 2, Degree: 2},
		Governors: 2, Stakes: initial, Params: reputation.DefaultParams(), Validator: testOracle,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitStakeTransfer(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRound(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(eng.Stakes(), []uint64{1, 0})

	first := run(3, true)
	sb0, sb1 := first["governor/0"].StakeBlock, first["governor/1"].StakeBlock
	if sb0 == nil || sb1 == nil || !bytes.Equal(consensus.EncodeStakeBlock(*sb0), consensus.EncodeStakeBlock(*sb1)) {
		t.Fatalf("governors hold stake blocks %v and %v, want one and the same", sb0, sb1)
	}
	for j := range initial {
		if got := checkpointed(j); got != want {
			t.Fatalf("governor/%d stakes and next nonces %s, want the engine's %s", j, got, want)
		}
	}

	ports := freePorts(t, len(d.Nodes))
	for i := range d.Nodes {
		d.Nodes[i].Addr = fmt.Sprintf("127.0.0.1:%d", ports[i])
	}
	second := run(2, false)
	for j := range initial {
		if h := second[fmt.Sprintf("governor/%d", j)].Height; h != 5 {
			t.Fatalf("restarted governor/%d height %d, want 5", j, h)
		}
		if got := checkpointed(j); got != want {
			t.Fatalf("restarted governor/%d stakes and next nonces %s, want %s", j, got, want)
		}
	}
}

// TestRuntimeRoundIsWorkBound: governors step as soon as their inputs
// are in, so each round's block follows the collectors' upload cutoff
// (0.30 R) by the work alone — well before the screen deadline's 0.55 R,
// let alone the 0.75 R a phase-locked election would wait for. The test
// plays provider/0 and timestamps each block's arrival at its endpoint.
func TestRuntimeRoundIsWorkBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock run")
	}
	d := testDeployment(t, 2, 2, 2, 2)
	ep, err := NewEndpoint(d, "provider/0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()
	const rounds = 3
	clock := Clock{Epoch: time.Now().Add(500 * time.Millisecond), Round: 2 * time.Second}
	base := RuntimeConfig{
		Deployment: d,
		Clock:      clock,
		Rounds:     rounds,
		Params:     reputation.DefaultParams(),
		Validator:  testOracle,
		TxPerRound: 3,
		ValidFrac:  0.8,
		Seed:       8,
	}
	wait := startNodes(t, base, "provider/0")
	arrived := make(map[uint64]time.Time)
	timeout := time.NewTimer(time.Until(clock.at(rounds+1, 0)))
	defer timeout.Stop()
	for len(arrived) < rounds {
		select {
		case <-ep.Arrived():
		case <-timeout.C:
			t.Fatalf("blocks %v of %d arrived by the last round's end", arrived, rounds)
		}
		now := time.Now()
		for _, f := range ep.Receive() {
			if f.Kind != network.KindBlock {
				continue
			}
			b, err := ledger.DecodeBlockBytes(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, seen := arrived[b.Serial]; !seen {
				arrived[b.Serial] = now
			}
		}
	}
	reports := wait()
	for r := uint64(1); r <= rounds; r++ {
		at, ok := arrived[r]
		if !ok {
			t.Fatalf("no block %d; arrived %v", r, arrived)
		}
		t.Logf("block %d arrived %v into its round", r, at.Sub(clock.at(r, 0)))
		if bound := clock.at(r, 0.45); !at.Before(bound) {
			t.Errorf("block %d arrived %v into its round, want before 0.45 R = %v",
				r, at.Sub(clock.at(r, 0)), bound.Sub(clock.at(r, 0)))
		}
	}
	for _, g := range mustRoster(t, d).Governors {
		if h := reports[string(g.ID)].Height; h != rounds {
			t.Errorf("%s ended at height %d, want %d", g.ID, h, rounds)
		}
	}
}

// TestRuntimeProviderCountsUndecodableBlock: a block frame a provider
// cannot decode is skipped and counted under
// node.blocks_ignored_total{reason="decode"}, never dropped silently.
func TestRuntimeProviderCountsUndecodableBlock(t *testing.T) {
	d := testDeployment(t, 1, 1, 1, 1)
	gov, err := NewEndpoint(d, "governor/0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = gov.Close() }()
	reg := metrics.NewRegistry()
	done := make(chan error, 1)
	go func() {
		_, err := RunNode(RuntimeConfig{
			Deployment: d,
			ID:         "provider/0",
			Clock:      Clock{Epoch: time.Now().Add(300 * time.Millisecond), Round: 400 * time.Millisecond},
			Rounds:     1,
			Metrics:    reg,
		})
		done <- err
	}()
	// The provider's listener comes up inside RunNode: retry until the
	// junk frame is delivered, well before the round ends.
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		err := gov.Send("provider/0", network.KindBlock, []byte("junk"))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("junk block never delivered: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterVec("node.blocks_ignored_total", "reason").With("decode").Value(); got != 1 {
		t.Fatalf("node.blocks_ignored_total{reason=decode} = %d, want 1", got)
	}
}

// TestRuntimeProviderOneFramePerCollector: a provider signs each
// round's submissions as one batch and sends each linked collector one
// frame carrying all of them, whatever TxPerRound is. A one-transaction
// frame carries that transaction's trace ID; a larger one carries none,
// like any frame that aggregates transactions.
func TestRuntimeProviderOneFramePerCollector(t *testing.T) {
	const rounds = 3
	for _, perRound := range []int{1, 5} {
		d := testDeployment(t, 1, 2, 2, 1)
		var colls []*Endpoint
		for _, id := range []identity.NodeID{"collector/0", "collector/1"} {
			ep, err := NewEndpoint(d, id)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ep.Close() }()
			colls = append(colls, ep)
		}
		reg := metrics.NewRegistry()
		report, err := RunNode(RuntimeConfig{
			Deployment: d,
			ID:         "provider/0",
			Clock:      Clock{Epoch: time.Now().Add(300 * time.Millisecond), Round: 200 * time.Millisecond},
			Rounds:     rounds,
			Params:     reputation.DefaultParams(),
			Validator:  testOracle,
			TxPerRound: perRound,
			ValidFrac:  1,
			Seed:       3,
			Metrics:    reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if report.Submitted != rounds*perRound || report.SendFailures != 0 {
			t.Fatalf("TxPerRound %d: submitted %d with %d send failures", perRound, report.Submitted, report.SendFailures)
		}
		if sent := reg.Counter("transport.frames_sent").Value(); sent != int64(rounds*len(colls)) {
			t.Fatalf("TxPerRound %d: provider sent %d frames, want %d", perRound, sent, rounds*len(colls))
		}
		for c, ep := range colls {
			frames := waitFrames(t, ep, rounds)
			if len(frames) != rounds {
				t.Fatalf("TxPerRound %d: collector %d got %d frames, want %d", perRound, c, len(frames), rounds)
			}
			for _, f := range frames {
				list, _, err := tx.DecodeListBytes(f.Payload, nil, nil)
				if f.Kind != network.KindProviderTx || err != nil || len(list) != perRound {
					t.Fatalf("TxPerRound %d: frame %s of %d transactions (%v)", perRound, f.Kind, len(list), err)
				}
				want := ""
				if perRound == 1 {
					want = list[0].ID().String()
				}
				if got := node.TraceIDOf(f.Kind, f.Payload); got != want {
					t.Fatalf("TxPerRound %d: trace ID %q, want %q", perRound, got, want)
				}
			}
		}
	}
}

func TestRuntimeUnknownNode(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	_, err := RunNode(RuntimeConfig{Deployment: d, ID: "ghost"})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("error = %v, want ErrUnknownPeer", err)
	}
}

func TestEndpointInflightLimit(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	a, err := NewEndpoint(d, "governor/0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewEndpoint(d, "governor/1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	b.inboxMu.Lock()
	b.inflight = 2
	b.inboxMu.Unlock()

	for i := 0; i < 5; i++ {
		if err := a.Send("governor/1", "test", []byte{byte(i)}); err != nil {
			t.Fatalf("Send(%d) error = %v", i, err)
		}
	}
	// All five frames arrive on the wire; only the first two survive the
	// inflight cap.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := b.Metrics().Snapshot().Counters["transport.frames_received"]; ok && v >= 5 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	frames := b.Receive()
	if len(frames) != 2 {
		t.Fatalf("kept %d frames, want 2", len(frames))
	}
	if frames[0].Payload[0] != 0 || frames[1].Payload[0] != 1 {
		t.Fatalf("kept payloads %d, %d, want the oldest 0, 1", frames[0].Payload[0], frames[1].Payload[0])
	}
	if v := b.Metrics().Snapshot().Counters["transport.inflight_dropped"]; v != 3 {
		t.Fatalf("transport.inflight_dropped = %v, want 3", v)
	}
	// Draining resets the per-peer count: new frames flow again.
	if err := a.Send("governor/1", "test", []byte{9}); err != nil {
		t.Fatal(err)
	}
	frames = waitFrames(t, b, 1)
	if frames[0].Payload[0] != 9 {
		t.Fatalf("post-drain frame payload = %d, want 9", frames[0].Payload[0])
	}
}

// TestEndpointInflightDefaultBound floods an endpoint at its default
// configuration: a peer that sends past maxInflightPerPeer frames
// without the receiver draining leaves exactly the bound in the inbox,
// and every excess frame is counted in transport.inflight_dropped.
func TestEndpointInflightDefaultBound(t *testing.T) {
	d := testDeployment(t, 2, 2, 1, 2)
	a, err := NewEndpoint(d, "governor/0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewEndpoint(d, "governor/1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	const excess = 100
	total := maxInflightPerPeer + excess
	for i := 0; i < total; i++ {
		if err := a.Send("governor/1", "test", []byte{byte(i)}); err != nil {
			t.Fatalf("Send(%d) error = %v", i, err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for b.Metrics().Counter("transport.frames_received").Value() < int64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames arrived", b.Metrics().Counter("transport.frames_received").Value(), total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(b.Receive()); got != maxInflightPerPeer {
		t.Fatalf("inbox held %d frames, want the bound %d", got, maxInflightPerPeer)
	}
	if got := b.Metrics().Counter("transport.inflight_dropped").Value(); got != excess {
		t.Fatalf("transport.inflight_dropped = %d, want %d", got, excess)
	}
}
