// Command carsharing reproduces the paper's §5.1 use case: a merged
// car-sharing alliance. Users (providers) broadcast ride requests to
// drivers (collectors); drivers label requests by serviceability;
// schedulers (governors) screen with the reputation mechanism, commit
// blocks, and assign drivers to the valid requests using driver
// reputation. The alliance runs as a two-committee cluster — each
// founding company keeps its own committee, chain, and drivers, while
// the scheduler pools both committees' valid requests every round.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"repchain"
	"repchain/internal/apps/carshare"
)

func main() {
	if err := run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "carsharing:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	rules := carshare.DefaultRules()
	// 6 users, 4 drivers (driver 3 misreports half the time — a
	// dishonest driver the reputation system should expose), 2
	// scheduler companies per committee. The modulo partition homes
	// users 0,2,4 on committee 0 and 1,3,5 on committee 1; drivers
	// follow their users, so drivers 0-1 serve committee 0 and drivers
	// 2-3 (including the dishonest one) serve committee 1.
	cluster, err := repchain.NewCluster(
		repchain.WithTopology(6, 4, 2),
		repchain.WithGovernors(2),
		repchain.WithCommittees(2),
		repchain.WithValidator(rules.Validator()),
		repchain.WithCollectorBehaviors(
			repchain.CollectorBehavior{},
			repchain.CollectorBehavior{},
			repchain.CollectorBehavior{},
			repchain.CollectorBehavior{Misreport: 0.5},
		),
		repchain.WithMempool(32), // at most 32 pending per user
		repchain.WithSeed(7),
	)
	if err != nil {
		return err
	}
	defer cluster.Close()

	rng := rand.New(rand.NewSource(7))
	riders := []string{"ana", "bo", "cam", "dee", "eli", "fay"}
	zones := rules.Zones

	// driverShares concatenates the per-committee revenue splits back
	// into the global driver order (drivers 0-1 on committee 0, 2-3 on
	// committee 1).
	driverShares := func() ([]float64, error) {
		var shares []float64
		for i := 0; i < cluster.Committees(); i++ {
			cm, err := cluster.Committee(i)
			if err != nil {
				return nil, err
			}
			s, err := cm.RevenueShares()
			if err != nil {
				return nil, err
			}
			shares = append(shares, s...)
		}
		return shares, nil
	}

	fmt.Println("== car-sharing alliance on RepChain (2 committees) ==")
	for round := 1; round <= 5; round++ {
		// Users submit ride requests; some are bogus (same zone,
		// absurd fare) and should be filtered by the chain. Each user
		// stages their round's requests as one batch, routed to their
		// company's committee by the partition.
		for i, rider := range riders {
			req := carshare.RideRequest{
				Rider:       rider,
				Origin:      zones[rng.Intn(len(zones))],
				Destination: zones[rng.Intn(len(zones))],
				PickupAt:    int64(round*100 + i),
				FareCents:   int64(500 + rng.Intn(4000)),
			}
			if rng.Float64() < 0.2 { // a bogus request
				req.Destination = req.Origin
			}
			batch := []repchain.Tx{{Kind: carshare.Kind, Payload: req.Encode(), Valid: rules.Valid(req)}}
			if _, err := cluster.SubmitBatch(ctx, i, batch); err != nil {
				return err
			}
		}
		sums, err := cluster.RunRoundCtx(ctx)
		if err != nil {
			return err
		}

		// The scheduler reads both committees' committed blocks and
		// assigns drivers to the pooled valid requests, weighting by
		// on-chain reputation.
		var requests []carshare.RideRequest
		for i, sum := range sums {
			cm, err := cluster.Committee(i)
			if err != nil {
				return err
			}
			records, err := cm.Block(sum.Serial)
			if err != nil {
				return err
			}
			for _, r := range records {
				if !r.Valid {
					continue
				}
				req, err := carshare.Decode(r.Payload)
				if err != nil {
					continue
				}
				requests = append(requests, req)
			}
		}
		shares, err := driverShares()
		if err != nil {
			return err
		}
		drivers := make([]carshare.Driver, 0, 4)
		for d := 0; d < 4; d++ {
			drivers = append(drivers, carshare.Driver{
				Name:       fmt.Sprintf("driver-%d", d),
				Zone:       zones[(round+d)%len(zones)],
				Reputation: shares[d],
			})
		}
		assigned, unassigned, err := carshare.Assign(requests, drivers)
		if err != nil {
			return err
		}
		fmt.Printf("\nround %d (blocks #%d/#%d, schedulers %d/%d): %d requests valid on-chain\n",
			round, sums[0].Serial, sums[1].Serial, sums[0].Leader, sums[1].Leader, len(requests))
		for _, a := range assigned {
			fmt.Printf("  %s: %s -> %s for %d¢  served by %s\n",
				a.Request.Rider, a.Request.Origin, a.Request.Destination, a.Request.FareCents, a.Driver)
		}
		if len(unassigned) > 0 {
			fmt.Printf("  %d request(s) wait for the next round\n", len(unassigned))
		}
	}

	// The dishonest driver's revenue share should now trail its honest
	// committee-mate's.
	shares, err := driverShares()
	if err != nil {
		return err
	}
	fmt.Println("\nfinal driver revenue shares (driver-3 misreports 50% of labels):")
	for d, s := range shares {
		fmt.Printf("  driver-%d: %.3f\n", d, s)
	}
	if err := cluster.VerifyChain(); err != nil {
		return err
	}
	fmt.Println("both ledgers verified — every assignment is traceable to a signed, committed request")
	return nil
}
