// Command repchain-sim runs a configurable policy-level simulation of
// the reputation mechanism and prints the aggregate metrics, or, with
// the tables subcommand, regenerates the evaluation tables recorded in
// EXPERIMENTS.md (DESIGN.md §3 maps each paper claim to an experiment
// ID).
//
// Usage:
//
//	repchain-sim -t 100000 -f 0.7 -liars 3
//	repchain-sim -policy uniform-random -t 50000
//	repchain-sim tables                   # every experiment, E1..E13
//	repchain-sim tables -run E1,E5        # selected experiments
//	repchain-sim tables -seed 7 -scale 2  # bigger workloads, fixed seed
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repchain/internal/identity"
	"repchain/internal/reputation"
	"repchain/internal/rwm"
	"repchain/internal/sim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "tables" {
		if err := tables(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "repchain-sim:", err)
			os.Exit(1)
		}
		return
	}
	var (
		t          = flag.Int("t", 50_000, "number of transactions")
		providers  = flag.Int("providers", 4, "providers (l)")
		collectors = flag.Int("collectors", 8, "collectors (n)")
		degree     = flag.Int("degree", 8, "collectors per provider (r)")
		policy     = flag.String("policy", "reputation-rwm", "screening policy: reputation-rwm, check-all, uniform-random, majority-vote")
		beta       = flag.Float64("beta", 0, "β weight decay; 0 = paper's recommendation for T")
		f          = flag.Float64("f", 0.5, "efficiency parameter f")
		validFrac  = flag.Float64("valid", 0.6, "fraction of valid transactions")
		liars      = flag.Int("liars", 2, "collectors that always misreport")
		concealers = flag.Int("concealers", 1, "collectors that conceal 50% of transactions")
		argueProb  = flag.Float64("argue", 1, "probability an unchecked valid tx is argued")
		delay      = flag.Int("reveal-delay", 0, "argue latency U in unchecked transactions")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	if err := run(*t, *providers, *collectors, *degree, *policy, *beta, *f,
		*validFrac, *liars, *concealers, *argueProb, *delay, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "repchain-sim:", err)
		os.Exit(1)
	}
}

// tables runs the experiments named by -run, printing each table and
// its wall time to w. It runs every requested ID and reports all the
// failures together.
func tables(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	runFlag := fs.String("run", "all", "comma-separated experiment IDs (E1..E13) or 'all'")
	seed := fs.Int64("seed", 42, "random seed for reproducible tables")
	scale := fs.Int("scale", 1, "workload multiplier (>=1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ids []string
	if *runFlag == "all" {
		for _, e := range sim.Experiments {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*runFlag, ",")
	}
	var errs []error
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		table, err := sim.RunTable(id, *seed, *scale)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", id, err))
			continue
		}
		fmt.Fprintln(w, table.Render())
		fmt.Fprintf(w, "(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return errors.Join(errs...)
}

func run(t, providers, collectors, degree int, policy string, beta, f, validFrac float64,
	liars, concealers int, argueProb float64, delay int, seed int64) error {
	if liars+concealers >= collectors {
		return fmt.Errorf("%d liars + %d concealers leave no honest collector among %d", liars, concealers, collectors)
	}
	if beta == 0 {
		beta = rwm.RecommendedBeta(degree, t)
	}
	models := make([]sim.CollectorModel, collectors)
	for i := 0; i < liars; i++ {
		models[collectors-1-i].Misreport = 1
	}
	for i := 0; i < concealers; i++ {
		models[1+i].Conceal = 0.5
	}
	params := reputation.DefaultParams()
	params.Beta = beta
	params.F = f
	s, err := sim.New(sim.Config{
		Spec:        identity.TopologySpec{Providers: providers, Collectors: collectors, Degree: degree},
		Params:      params,
		Policy:      policy,
		Models:      models,
		ValidFrac:   validFrac,
		ArgueProb:   argueProb,
		RevealDelay: delay,
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	res, err := s.Run(t)
	if err != nil {
		return err
	}

	fmt.Printf("policy            %s\n", policy)
	fmt.Printf("topology          l=%d n=%d r=%d (s=%d)\n", providers, collectors, degree,
		providers*degree/collectors)
	fmt.Printf("params            beta=%.3f f=%.2f valid=%.2f liars=%d concealers=%d U=%d\n",
		beta, f, validFrac, liars, concealers, delay)
	fmt.Printf("transactions      %d (%d unreported)\n", res.Transactions, res.Unreported)
	fmt.Printf("checked           %d (%.1f%%)\n", res.Checked, 100*res.CheckFrac)
	fmt.Printf("unchecked         %d (%.1f%%, Lemma 2 bound f=%.0f%%)\n",
		res.Unchecked, 100*res.UncheckedFrac, 100*f)
	fmt.Printf("governor mistakes %d (loss %.0f)\n", res.Mistakes, res.Loss)
	if res.Regret != nil {
		bound := rwm.TheoremOneBound(degree, t/providers)
		fmt.Printf("expected loss L_T %.1f\n", res.ExpectedLoss)
		for k, r := range res.Regret {
			fmt.Printf("provider %-3d      regret %.1f (best collector loss %.1f, Theorem 1 bound %.0f)\n",
				k, r, res.BestLoss[k], bound)
		}
		fmt.Printf("revenue shares    ")
		for _, sh := range res.RevenueShares {
			fmt.Printf("%.3f ", sh)
		}
		fmt.Println()
	}
	return nil
}
