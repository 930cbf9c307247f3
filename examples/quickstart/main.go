// Command quickstart is the smallest end-to-end RepChain program: a
// 4-provider / 4-collector / 3-governor alliance sharded across two
// committees. It batch-submits transactions through the cluster's
// partition routing, sends one cross-shard transfer through the
// two-phase receipt protocol, runs protocol rounds, and prints what
// each committee's blocks recorded.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"repchain"
)

func main() {
	if err := run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// validator: a transaction is valid when its first payload byte is 1.
// Real applications replace this with domain rules (see the carsharing
// and insurance examples).
var validator = repchain.ValidatorFunc(func(t repchain.Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
})

func run(ctx context.Context) error {
	// WithTopology describes the whole alliance; WithCommittees(2)
	// splits it into two committees along the default modulo partition
	// (even providers on committee 0, odd on committee 1), each with
	// its own collectors, governors, and chain. Drop WithCommittees —
	// or use repchain.New with the same options — and the single
	// resulting chain is byte-identical.
	cluster, err := repchain.NewCluster(
		repchain.WithTopology(4, 4, 2), // 4 providers, 4 collectors, 2 collectors per provider
		repchain.WithGovernors(3),
		repchain.WithCommittees(2),
		repchain.WithValidator(validator),
		repchain.WithReputationParams(0.9, 0.5, 1.1, 2.0), // β, f, µ, ν — the paper's defaults
		repchain.WithMempool(64),                          // at most 64 pending per provider; full = ErrBacklog
		repchain.WithSeed(2024),
	)
	if err != nil {
		return err
	}
	defer cluster.Close()

	fmt.Println("submitting 12 transactions (every third one invalid)...")
	batches := make(map[int][]repchain.Tx, 4)
	for i := 0; i < 12; i++ {
		valid := i%3 != 2
		payload := []byte{0, byte(i)}
		if valid {
			payload[0] = 1
		}
		batches[i%4] = append(batches[i%4], repchain.Tx{
			Kind:    "quickstart/demo",
			Payload: payload,
			Valid:   valid,
		})
	}
	for provider := 0; provider < 4; provider++ {
		// SubmitBatch routes each provider's batch to its home
		// committee; callers never name committees directly.
		ids, err := cluster.SubmitBatch(ctx, provider, batches[provider])
		if errors.Is(err, repchain.ErrBacklog) {
			// The shard is full: ids holds the admitted prefix. A real
			// ingester would run a round and resume from txs[len(ids)];
			// here 3 tx per provider never fill a 64-slot shard.
			return fmt.Errorf("unexpected backpressure after %d txs: %w", len(ids), err)
		}
		if err != nil {
			return err
		}
		home, err := cluster.Home(provider)
		if err != nil {
			return err
		}
		for j, id := range ids {
			fmt.Printf("  provider %d (committee %d) -> tx %s (valid=%v)\n",
				provider, home, id.Short(), batches[provider][j].Valid)
		}
	}

	// Provider 0 (committee 0) pays provider 1 (committee 1): the lock
	// commits on committee 0's chain, then the cluster relays a receipt
	// onto committee 1's chain.
	crossID, err := cluster.SubmitCross(0, 1, "quickstart/transfer", []byte{1, 99}, true)
	if err != nil {
		return err
	}
	fmt.Printf("  cross-shard transfer 0 -> 1: lock %s\n", crossID.Short())

	for round := 0; round < 3; round++ {
		sums, err := cluster.RunRoundCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("\nround %d:\n", round+1)
		for i, sum := range sums {
			fmt.Printf("  committee %d: block #%d by governor %d — %d records, %d uploads, %d argues\n",
				i, sum.Serial, sum.Leader, sum.Records, sum.Uploads, sum.Argues)
			cm, err := cluster.Committee(i)
			if err != nil {
				return err
			}
			records, err := cm.Block(sum.Serial)
			if err != nil {
				return err
			}
			for _, r := range records {
				state := "valid"
				if !r.Valid {
					state = "invalid"
				}
				if r.Unchecked {
					state += " (unchecked)"
				}
				fmt.Printf("    tx %s from %s: %s\n", r.ID.Short(), r.Provider, state)
			}
		}
	}
	if pending := cluster.PendingReceipts(); pending != 0 {
		return fmt.Errorf("%d cross-shard receipts still pending", pending)
	}
	fmt.Println("\ncross-shard transfer delivered: lock on committee 0, receipt on committee 1")

	if err := cluster.VerifyChain(); err != nil {
		return fmt.Errorf("chain verification: %w", err)
	}
	fmt.Println("both chains verified: serials, hash links, and tx roots all consistent")

	for i := 0; i < cluster.Committees(); i++ {
		cm, err := cluster.Committee(i)
		if err != nil {
			return err
		}
		shares, err := cm.RevenueShares()
		if err != nil {
			return err
		}
		fmt.Printf("committee %d collector revenue shares (all honest, so roughly equal):\n", i)
		for c, s := range shares {
			fmt.Printf("  collector %d: %.3f\n", c, s)
		}
	}
	return nil
}
