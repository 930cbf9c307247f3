package sim

import (
	"errors"
	"fmt"

	"repchain/internal/core"
	"repchain/internal/identity"
	"repchain/internal/reputation"
)

// E13MempoolBackpressure measures the mempool ingestion tier
// (DESIGN.md §4d): a burst far larger than one block is submitted
// up front with a retry-on-backlog loop, and the table reports how the
// backlog drains round by round — staged depth, drained batch size,
// committed records — until the burst fully commits. The claim under
// test: per-provider caps + BlockLimit-capped drains give backpressure
// without loss (every burst transaction eventually commits) at a
// steady one-block-per-round pace.
func E13MempoolBackpressure(seed int64, scale int) (Table, error) {
	const (
		providers      = 8
		capPerProvider = 32
		blockLimit     = 64
	)
	burst := 512 * scale
	t := Table{
		ID:     "E13",
		Title:  "Mempool backpressure — burst drains at b_limit per round, no loss",
		Header: []string{"round", "staged", "drained", "committed", "backlogged submits"},
		Notes: []string{
			fmt.Sprintf("burst of %d tx from %d providers into a mempool capped at %d per provider (b_limit %d)", burst, providers, capPerProvider, blockLimit),
			"backlogged submits = ErrBacklog rejections retried after the next round; expected shape: staged ≤ providers·cap, drained = b_limit until the tail, total committed = burst",
		},
	}
	cfg := core.Config{
		Spec:        identity.TopologySpec{Providers: providers, Collectors: 4, Degree: 2},
		Governors:   3,
		Params:      reputation.DefaultParams(),
		BlockLimit:  blockLimit,
		MempoolCap:  capPerProvider,
		ArgueWindow: 64,
		Seed:        seed,
		Validator:   engineValidator,
	}
	e, err := core.New(cfg)
	if err != nil {
		return Table{}, err
	}
	pending := make([]int, 0, burst)
	for i := 0; i < burst; i++ {
		pending = append(pending, i)
	}
	committed := 0
	round := 0
	for len(pending) > 0 || e.MempoolDepth() > 0 {
		// Submit as much of the remaining burst as the caps accept.
		backlogged := 0
		rest := pending[:0]
		for _, i := range pending {
			_, err := e.SubmitTx(i%providers, "burst", enginePayload(true, i), true)
			if errors.Is(err, core.ErrBacklog) {
				backlogged++
				rest = append(rest, i)
				continue
			}
			if err != nil {
				return Table{}, err
			}
		}
		pending = rest
		staged := e.MempoolDepth()
		res, err := e.RunRound()
		if err != nil {
			return Table{}, err
		}
		drained := staged - e.MempoolDepth()
		committed += res.Records
		round++
		t.Rows = append(t.Rows, []string{
			d(round), d(staged), d(drained), d(res.Records), d(backlogged),
		})
		if round > 4*burst/blockLimit+8 {
			return Table{}, fmt.Errorf("burst failed to drain after %d rounds", round)
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total committed: %d of %d burst transactions in %d rounds", committed, burst, round))
	if committed < burst {
		return Table{}, fmt.Errorf("lost transactions: committed %d of %d", committed, burst)
	}
	return t, nil
}
