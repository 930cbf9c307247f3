package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repchain"
)

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("empty: got %v", got)
	}
	one := []float64{7}
	if percentile(one, 50) != 7 || percentile(one, 95) != 7 {
		t.Fatal("single sample must be every percentile")
	}
	// 1..100 unsorted: nearest rank p is the value p.
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64((i*37)%100 + 1)
	}
	for _, p := range []float64{1, 50, 95, 100} {
		if got := percentile(v, p); got != p {
			t.Fatalf("p%v of 1..100 = %v", p, got)
		}
	}
	// 20 samples: p95 is the 19th, leaving one beyond it.
	w := make([]float64, 20)
	for i := range w {
		w[i] = float64(i + 1)
	}
	if got := percentile(w, 95); got != 19 {
		t.Fatalf("p95 of 1..20 = %v, want 19", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("two values: %v %v %v", q1, q2, q3)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("median")
	}
}

func TestScheduleDueTimesAndLateness(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	s := schedule{epoch: epoch, interval: tcpRound / 320, round: tcpRound}
	if !s.due(0).Equal(epoch) {
		t.Fatal("first transaction is due at the epoch")
	}
	// Due times do not depend on when earlier transactions were sent:
	// 320 per round means transaction 320 opens round 2.
	if got := s.due(320).Sub(epoch); got != tcpRound {
		t.Fatalf("due(320) = epoch+%v, want one round", got)
	}
	// The offered load is 320 tx/s.
	if perSecond := float64(time.Second) / float64(s.interval); math.Abs(perSecond-320) > 0.01 {
		t.Fatalf("rate %v tx/s", perSecond)
	}
	due := s.due(5)
	if lateness(due, due.Add(3*time.Millisecond)) != 3*time.Millisecond {
		t.Fatal("a send after the due time is late by the difference")
	}
	if lateness(due, due.Add(-time.Millisecond)) != 0 {
		t.Fatal("an early wake-up is not negative lateness")
	}
	// Latency counts from the due time, so a stalled generator's wait
	// shows in commit latency, not only in lateness.
	a := newAccount()
	id := repchain.TxID{1}
	a.add(id, 0, repchain.Tx{Valid: true}, false, 0, due, 1)
	a.observe(0, 1, []repchain.RecordStatus{{ID: id, Valid: true}}, due.Add(400*time.Millisecond), 1)
	if len(a.latencyMS) != 1 || a.latencyMS[0] != 400 {
		t.Fatalf("latency %v", a.latencyMS)
	}
}

func TestBlocksAndHostSpeed(t *testing.T) {
	// Ten blocks by default, whole fault cycles for the chaos workload,
	// one round each when the window is shorter than ten rounds.
	steady, _ := findWorkload("inproc-steady")
	chaos, _ := findWorkload("inproc-chaos")
	if blockLen(steady, 207) != 21 || blockLen(steady, 2) != 1 || blockLen(chaos, 420) != chaosCycle {
		t.Fatalf("block lengths %d %d %d", blockLen(steady, 207), blockLen(steady, 2), blockLen(chaos, 420))
	}

	// A sample lands in the block its transaction was submitted in,
	// whenever it commits; transactions outside the window give none.
	a := newAccount()
	now := time.Now()
	for i, blk := range []int{-1, 0, 0, 2} {
		id := repchain.TxID{byte(i + 1)}
		a.add(id, 0, repchain.Tx{Valid: true}, false, blk, now, 1)
		a.observe(0, 1, []repchain.RecordStatus{{ID: id, Valid: true}}, now.Add(time.Duration(10*(i+1))*time.Millisecond), 9)
	}
	want := [][]float64{{20, 30}, nil, {40}}
	if !reflect.DeepEqual(a.blockLatencyMS, want) || a.committedValid != 3 {
		t.Fatalf("block samples %v, committed %d", a.blockLatencyMS, a.committedValid)
	}

	// A block read on a slow host: its times shrink by the factor, its
	// rate grows by it. A clock-bound block keeps its latency and rate; its
	// CPU time still shrinks. At the reference speed nothing changes.
	if atReference(1, 0.65) != 1 || atReference(0.5, 1) != 0.5 || !(atReference(0.5, 0.65) > 0.5 && atReference(0.5, 0.65) < 1) {
		t.Fatalf("atReference: %v %v %v", atReference(1, 0.65), atReference(0.5, 1), atReference(0.5, 0.65))
	}
	f := atReference(0.5, 0.65)
	b := block{Speed: 0.5, wall: time.Second, cpu: 400 * time.Millisecond}
	b.derive([]float64{10, 20, 30, 40}, spec{speedShare: 0.65})
	if b.Samples != 4 || b.P50MS != 20*f || b.P95MS != 40*f || b.TPS != 4/f || b.CPUUS != 100_000*f {
		t.Fatalf("cpu-bound block %+v", b)
	}
	b.derive([]float64{10, 20, 30, 40}, spec{speedShare: 0.65, clockBound: true})
	if b.P50MS != 20 || b.P95MS != 40 || b.TPS != 4 || b.CPUUS != 100_000*f {
		t.Fatalf("clock-bound block %+v", b)
	}
	// The median skips blocks that saw no transaction.
	blocks := []block{{Samples: 1, TPS: 1}, {TPS: 100}, {Samples: 1, TPS: 3}, {Samples: 1, TPS: 2}}
	if got := blockMedian(blocks, func(b *block) float64 { return b.TPS }); got != 2 {
		t.Fatalf("block median %v", got)
	}

	// The speedometer runs a unit no more often than asked, accounts the
	// time it spent, and reads 1 when it has nothing to go on.
	m := newSpeedometer(time.Hour)
	if m.take() != 1 {
		t.Fatal("no units: speed 1")
	}
	m.tick()
	m.tick()
	if len(m.us) != 1 || m.spent <= 0 {
		t.Fatalf("units %v, spent %v", m.us, m.spent)
	}
	if got, want := m.take(), speedRefUS/us(m.spent); math.Abs(got-want) > 1e-6*want || len(m.us) != 0 {
		t.Fatalf("speed %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "facade.submit", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "facade.run_round", Start: 30, End: 80},
		{ID: 4, Parent: 3, Name: "inner", Start: 40, End: 50},
		// Overlapping children are covered once; a child reaching past its
		// parent counts only inside it.
		{ID: 5, Name: "root2", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "a", Start: 210, End: 250},
		{ID: 7, Parent: 5, Name: "b", Start: 240, End: 320},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 30, 2: 20, 3: 40, 4: 10, 5: 10, 6: 40, 7: 80}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	// A nil recorder records nothing.
	var rec *recorder
	rec.end(rec.start("x", "t", 0))
}

func TestSeedGivesIdenticalPayloadStream(t *testing.T) {
	draw := func(seed int64) ([]byte, []bool) {
		g := newGenerator(seed, 0.75, 0.10)
		var all []byte
		var flags []bool
		for _, b := range g.round(8, 32) {
			for i, tx := range b.txs {
				all = append(all, tx.Payload...)
				flags = append(flags, tx.Valid, b.crossTo[i] >= 0)
			}
		}
		return all, flags
	}
	p1, f1 := draw(7)
	p2, f2 := draw(7)
	p3, _ := draw(8)
	if !bytes.Equal(p1, p2) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("same seed, different stream")
	}
	if bytes.Equal(p1, p3) {
		t.Fatal("different seeds, same stream")
	}
	if len(p1) != 8*32*payloadSize {
		t.Fatalf("stream length %d", len(p1))
	}
	// The ground truth is the payload's first byte, which both
	// validators read.
	g := newGenerator(1, 0.5, 0)
	for i := 0; i < 50; i++ {
		tx, _ := g.next()
		got := trivialValidator.Validate(repchain.Transaction{Payload: tx.Payload})
		if got != tx.Valid || costlyValidator.Validate(repchain.Transaction{Payload: tx.Payload}) != tx.Valid {
			t.Fatal("validator disagrees with the generator's ground truth")
		}
	}
}

func TestFailureRule(t *testing.T) {
	now := time.Now()
	id := func(b byte) repchain.TxID { return repchain.TxID{b} }
	rec := func(b byte, valid, unchecked bool) []repchain.RecordStatus {
		return []repchain.RecordStatus{{ID: id(b), Valid: valid, Unchecked: unchecked}}
	}
	a := newAccount()
	a.retryAfter = 3
	for b := byte(1); b <= 6; b++ {
		a.add(id(b), 0, repchain.Tx{Valid: b != 4 && b != 5}, false, 0, now, 1)
	}
	a.attempted = 6
	// 1: valid, committed once.
	a.observe(0, 1, rec(1, true, false), now, 1)
	// 2: valid, recorded (invalid, unchecked), argued, re-recorded valid.
	a.observe(0, 1, rec(2, false, true), now, 1)
	a.observe(0, 2, rec(2, true, false), now, 2)
	// 3: valid, never seen: lost.
	// 4: invalid, recorded (invalid, unchecked) twice: tolerated, counted.
	a.observe(0, 1, rec(4, false, true), now, 1)
	a.observe(0, 2, rec(4, false, true), now, 2)
	// 5: invalid, recorded valid: a failure.
	a.observe(0, 1, rec(5, true, false), now, 1)
	// 6: valid, recorded valid twice: committed twice.
	a.observe(0, 1, rec(6, true, false), now, 1)
	a.observe(0, 2, rec(6, true, false), now, 2)
	// A record nobody submitted.
	a.observe(0, 2, rec(99, true, false), now, 2)

	failed, lost, dups := a.failures()
	if failed != 3 || lost != 1 || dups != 1 || a.rerecorded != 1 || a.unknown != 1 {
		t.Fatalf("failed=%d lost=%d dups=%d rerecorded=%d unknown=%d", failed, lost, dups, a.rerecorded, a.unknown)
	}

	// A client retry: transaction 3 is overdue at round 4, is re-sent
	// under a new ID, and commits; the operation no longer fails, and it
	// is still one operation.
	over := a.overdue(4, 1)
	if len(over) != 1 || len(over[0]) != 1 || over[0][0] != a.txs[id(3)] {
		t.Fatalf("overdue = %v", over)
	}
	a.addRetry(id(33), over[0][0], 4)
	a.observe(0, 3, rec(33, true, false), now.Add(time.Second), 4)
	failed, lost, _ = a.failures()
	if failed != 2 || lost != 0 || a.retries != 1 {
		t.Fatalf("after retry: failed=%d lost=%d retries=%d", failed, lost, a.retries)
	}
	// Its latency runs from the first hand-off.
	if last := a.latencyMS[len(a.latencyMS)-1]; last != 1000 {
		t.Fatalf("retried latency %v ms", last)
	}
}

func TestNormaliseArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-seed", "1", "-trace"}, []string{"-seed", "1", "-trace=1"}},
		{[]string{"--trace", "0", "--seed", "2"}, []string{"-trace=0", "--seed", "2"}},
		{[]string{"--trace", "1"}, []string{"-trace=1"}},
		{[]string{"-trace", "-out", "x"}, []string{"-trace=1", "-out", "x"}},
	} {
		if got := normaliseArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normaliseArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	o, err := parseFlags([]string{"--workload", "tcp-loopback", "--seed", "9", "--seconds", "10", "--trace", "0"})
	if err != nil || o.workload != "tcp-loopback" || o.seed != 9 || o.seconds != 10 || o.trace {
		t.Fatalf("driver form: %+v, %v", o, err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness's own
// metric and workload tables from drifting apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s", i, file.Workloads[i], w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}

// TestSmoke runs every workload for two measured rounds (the chaos
// workload for one fault cycle) and holds it to the correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, s := range workloads {
		s := s
		t.Run(s.name, func(t *testing.T) {
			// The clock-scheduled run goes first and alone: starved of the
			// processor by five others (under -race, say) its governors miss
			// their deadlines and exit.
			if !s.clockBound {
				t.Parallel()
			}
			res, err := s.run(s, options{seed: 5, scale: 2 / float64(s.rounds), traced: true, outDir: out})
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborted {
				// Under the race detector, say: not a fault of the harness.
				t.Skipf("the host could not hold the wall-clock schedule: %v", res.Problems)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			for _, m := range endToEnd {
				if v, ok := res.EndToEnd[m.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v", m.name, v)
				}
			}
			for _, name := range []string{"crypto.sign_us", "tx.decode_us", "transport.frame_us", "consensus.elect_us", "ledger.append_us_per_block"} {
				if v, ok := res.PerLayer[name]; !ok || !(v > 0) {
					t.Errorf("probe %s = %v", name, v)
				}
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
