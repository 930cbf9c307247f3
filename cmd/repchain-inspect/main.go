// Command repchain-inspect audits and displays a persisted chain
// (the `governor-<j>.chain` segment directories written under
// WithChainDir / Config.ChainDir). It recovers the store, verifies serial
// ordering, hash links, transaction-root commitments, and — on pruned
// chains — the snapshot anchor, and prints a block-by-block summary of
// every retrievable block. It can also scrape
// a running node's admin endpoint (repchain-node -admin-addr).
//
// Usage:
//
//	repchain-inspect -chain data/governor-0.chain
//	repchain-inspect -chain data/governor-0.chain -block 7   # one block in detail
//	repchain-inspect metrics -admin 127.0.0.1:9180           # live metrics snapshot
//	repchain-inspect trace -admin 127.0.0.1:9180 <txhash>    # one tx's lifecycle events
//	repchain-inspect cluster -admins host:p1,host:p2         # fleet health + merged metrics
//	repchain-inspect cluster -admins ... trace <txhash>      # cross-node stitched trace
//	repchain-inspect events -admin 127.0.0.1:9180 -follow    # tail the event stream
package main

import (
	"flag"
	"fmt"
	"os"

	"repchain/internal/ledger"
	"repchain/internal/tx"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "metrics":
			if err := runMetrics(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "repchain-inspect metrics:", err)
				os.Exit(1)
			}
			return
		case "trace":
			if err := runTrace(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "repchain-inspect trace:", err)
				os.Exit(1)
			}
			return
		case "cluster":
			if err := runCluster(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "repchain-inspect cluster:", err)
				os.Exit(1)
			}
			return
		case "events":
			if err := runEvents(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "repchain-inspect events:", err)
				os.Exit(1)
			}
			return
		}
	}

	var (
		chainPath = flag.String("chain", "", "path to a governor-<j>.chain directory")
		blockNum  = flag.Uint64("block", 0, "print one block in detail (0 = summary of all)")
		quiet     = flag.Bool("q", false, "verify only; print nothing but errors")
	)
	flag.Parse()

	if err := run(*chainPath, *blockNum, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "repchain-inspect:", err)
		os.Exit(1)
	}
}

func run(chainPath string, blockNum uint64, quiet bool) error {
	if chainPath == "" {
		return fmt.Errorf("-chain is required")
	}
	// OpenFileStore creates missing files (store semantics); an
	// inspector must not.
	if _, err := os.Stat(chainPath); err != nil {
		return fmt.Errorf("chain file: %w", err)
	}
	store, err := ledger.OpenFileStore(chainPath)
	if err != nil {
		return err
	}
	defer func() { _ = store.Close() }()

	if err := ledger.VerifyChain(store); err != nil {
		return fmt.Errorf("chain verification FAILED: %w", err)
	}
	if quiet {
		return nil
	}
	height := store.Height()
	first := store.FirstAvailable()
	if first > 1 {
		fmt.Printf("%s: height %d, blocks %d-%d retrievable (1-%d pruned behind snapshot), chain verified (serials, hash links, tx roots, snapshot anchor)\n",
			chainPath, height, first, height, first-1)
	} else {
		fmt.Printf("%s: %d blocks, chain verified (serials, hash links, tx roots)\n", chainPath, height)
	}
	if snapH, head, ok := store.SnapshotAnchor(); ok {
		fmt.Printf("snapshot  height %d  head %s\n", snapH, head.Short())
	}
	ri := store.Recovery()
	if ri.TornBytesDropped > 0 || ri.SnapshotsSkipped > 0 {
		fmt.Printf("recovery  dropped %d torn tail bytes, skipped %d damaged snapshots\n",
			ri.TornBytesDropped, ri.SnapshotsSkipped)
	}

	if blockNum > 0 {
		return printBlock(store, blockNum)
	}
	for s := first; s <= height; s++ {
		b, err := store.Get(s)
		if err != nil {
			return err
		}
		valid, invalid, unchecked := tally(b)
		fmt.Printf("block %4d  %s  by %-12s  %3d records (%d valid, %d invalid, %d unchecked)\n",
			b.Serial, b.Hash().Short(), b.Proposer, len(b.Records), valid, invalid, unchecked)
	}
	return nil
}

func tally(b ledger.Block) (valid, invalid, unchecked int) {
	for _, r := range b.Records {
		switch {
		case r.Unchecked:
			unchecked++
		case r.Status == tx.StatusValid:
			valid++
		default:
			invalid++
		}
	}
	return valid, invalid, unchecked
}

func printBlock(store ledger.Store, s uint64) error {
	b, err := store.Get(s)
	if err != nil {
		return err
	}
	fmt.Printf("\nblock %d\n", b.Serial)
	fmt.Printf("  hash      %s\n", b.Hash())
	fmt.Printf("  prev      %s\n", b.PrevHash)
	fmt.Printf("  tx root   %s\n", b.TxRoot)
	fmt.Printf("  proposer  %s\n", b.Proposer)
	fmt.Printf("  records   %d\n", len(b.Records))
	for i, r := range b.Records {
		status := r.Status.String()
		if r.Unchecked {
			status += " (unchecked)"
		}
		fmt.Printf("  [%3d] %s  from %-12s  kind %-24s  label %s  %s\n",
			i, r.Signed.ID().Short(), r.Signed.Tx.Provider, r.Signed.Tx.Kind, r.Label, status)
	}
	return nil
}
