// Allocation budgets for the four distinct round paths through the
// facade, and the one round benchmark kept for profiling. Wall-clock
// claims (tx/s, tracing overhead, committee scaling) belong to the
// benchmark harness (BENCHMARK.json, benchmark/); the allocation count
// of a round is deterministic enough to pin in an ordinary test.
package repchain_test

import (
	"fmt"
	"testing"

	"repchain"
)

// txPerRound is the measured round's size: the 32-transaction round
// every budget below and the benchmark's smaller size share.
const txPerRound = 32

var benchValidator = repchain.ValidatorFunc(func(t repchain.Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
})

// raceEnabled is set by race_test.go.
var raceEnabled bool

// submitRound submits round i's n transactions, three in four valid,
// spread over 8 providers.
func submitRound(tb testing.TB, i, n int, submit func(int, string, []byte, bool) (repchain.TxID, error)) {
	tb.Helper()
	for j := 0; j < n; j++ {
		valid := j%4 != 3
		payload := []byte{0, byte(j), byte(i), byte(i >> 8)}
		if valid {
			payload[0] = 1
		}
		if _, err := submit(j%8, "bench", payload, valid); err != nil {
			tb.Fatal(err)
		}
	}
}

// chainRound builds a one-committee chain and returns its round i of n
// transactions.
func chainRound(tb testing.TB, n int, opts ...repchain.Option) func(i int) {
	tb.Helper()
	chain, err := repchain.New(append([]repchain.Option{
		repchain.WithTopology(8, 4, 2),
		repchain.WithGovernors(3),
		repchain.WithValidator(benchValidator),
		repchain.WithSeed(1),
	}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = chain.Close() })
	return func(i int) {
		submitRound(tb, i, n, chain.Submit)
		if _, err := chain.RunRound(); err != nil {
			tb.Fatal(err)
		}
	}
}

// clusterRound builds four committees over 8 providers and returns
// their round i, which carries one cross-shard transfer so the
// two-phase receipt relay is on the path.
func clusterRound(tb testing.TB) func(i int) {
	tb.Helper()
	cluster, err := repchain.NewCluster(
		repchain.WithTopology(8, 16, 2), // collector degree 1, as Rehome needs
		repchain.WithGovernors(3),
		repchain.WithCommittees(4),
		repchain.WithValidator(benchValidator),
		repchain.WithSeed(1),
	)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = cluster.Close() })
	return func(i int) {
		submitRound(tb, i, txPerRound, cluster.Submit)
		if _, err := cluster.SubmitCross(0, 1, "bench/x", []byte{1, byte(i)}, true); err != nil {
			tb.Fatal(err)
		}
		if _, err := cluster.RunRound(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRoundAllocBudgets pins the allocations of one round on each
// distinct path: plain, with the event ring recording, fed
// from bounded mempools, and four committees with a cross transfer.
// Each budget is the count measured when it was last pinned ×1.10 + 8.
// testing.AllocsPerRun pins GOMAXPROCS to 1 while it counts;
// re-measure with -v, which logs every count. Under -race sync.Pool
// drops items at random, so the counts mean nothing there.
func TestRoundAllocBudgets(t *testing.T) {
	cases := []struct {
		name     string
		measured float64
		round    func(testing.TB) func(int)
	}{
		{"plain", 1089, func(tb testing.TB) func(int) {
			return chainRound(tb, txPerRound)
		}},
		{"tracing", 2474, func(tb testing.TB) func(int) {
			return chainRound(tb, txPerRound, repchain.WithEventLog(1<<16))
		}},
		{"mempool", 1089, func(tb testing.TB) func(int) {
			return chainRound(tb, txPerRound, repchain.WithMempool(256), repchain.WithBlockLimit(64))
		}},
		{"committees=4", 2212, clusterRound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("sync.Pool drops items at random under -race")
			}
			round, i := tc.round(t), 0
			got := testing.AllocsPerRun(10, func() {
				round(i)
				i++
			})
			budget := tc.measured*1.10 + 8
			if got > budget {
				t.Fatalf("%v allocs per round, budget %v", got, budget)
			}
			t.Logf("%v allocs per round (budget %v)", got, budget)
		})
	}
}

// BenchmarkFullProtocolRound is one plain round of the whole stack —
// signatures, bus, screening, election, block replication — kept
// ungated for -cpuprofile/-memprofile work. The engine steps a round's
// nodes inline below 96 drained transactions and fans them out from
// there, so the two sizes profile one path each.
func BenchmarkFullProtocolRound(b *testing.B) {
	for _, n := range []int{txPerRound, 128} {
		b.Run(fmt.Sprintf("tx=%d", n), func(b *testing.B) {
			round := chainRound(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(i)
			}
		})
	}
}
