package sim

import (
	"fmt"
	"time"

	"repchain/internal/core"
	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/network"
	"repchain/internal/reputation"
	"repchain/internal/tx"
)

// engineValidator is the shared ground-truth oracle for full-protocol
// experiments: first payload byte 1 = valid.
var engineValidator = tx.ValidatorFunc(func(t tx.Transaction) bool {
	return len(t.Payload) > 0 && t.Payload[0] == 1
})

// costlyValidator wraps the oracle with a realistic validation cost:
// the paper's premise is that validate(tx) is the expensive operation
// governors want to skip (signature checks, state lookups, external
// audits). The synthetic cost is a chain of hash evaluations, roughly
// the price of re-verifying a transaction's provenance.
func costlyValidator(hashes int) tx.Validator {
	return tx.ValidatorFunc(func(t tx.Transaction) bool {
		h := crypto.Sum(t.Payload)
		for i := 0; i < hashes; i++ {
			h = crypto.Sum(h[:])
		}
		_ = h
		return len(t.Payload) > 0 && t.Payload[0] == 1
	})
}

func enginePayload(valid bool, n int) []byte {
	b := byte(0)
	if valid {
		b = 1
	}
	return []byte{b, byte(n), byte(n >> 8), byte(n >> 16)}
}

// runEngineRounds drives a full engine for the given rounds and
// transactions per round (one transaction in validOneIn is valid),
// returning the engine and elapsed wall time.
func runEngineRounds(cfg core.Config, rounds, txPerRound, validOneIn int) (*core.Engine, time.Duration, error) {
	e, err := core.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	providers := cfg.Spec.Providers
	start := time.Now()
	n := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < txPerRound; i++ {
			valid := i%validOneIn == 0
			if _, err := e.SubmitTx(n%providers, "bench", enginePayload(valid, n), valid); err != nil {
				return nil, 0, err
			}
			n++
		}
		if _, err := e.RunRound(); err != nil {
			return nil, 0, err
		}
	}
	return e, time.Since(start), nil
}

// E4ThroughputVsF measures the efficiency claim of §3.4: "The larger f
// is, the faster the protocol executes" — verification work per
// transaction falls with f, and end-to-end throughput rises.
func E4ThroughputVsF(seed int64, scale int) (Table, error) {
	rounds := 10 * scale
	const txPerRound = 60
	t := Table{
		ID:     "E4",
		Title:  "Efficiency — verification cost and throughput vs f",
		Header: []string{"f", "checked/tx", "unchecked/tx", "tx/s (full protocol)", "blocks"},
		Notes: []string{
			fmt.Sprintf("full protocol (signatures + bus + consensus): %d rounds × %d tx, 8 providers / 4 collectors / 3 governors", rounds, txPerRound),
			"workload is 75% invalid so -1 labels dominate and the f-coin has leverage; validate(tx) costs ~5k hash evaluations, modelling the expensive verification the paper's governors skip",
			"expected shape: checked/tx decreases in f; tx/s increases in f (absolute numbers are host-dependent)",
		},
	}
	validator := costlyValidator(5_000)
	for _, f := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		params := reputation.DefaultParams()
		params.F = f
		cfg := core.Config{
			Spec:        identity.TopologySpec{Providers: 8, Collectors: 4, Degree: 2},
			Governors:   3,
			Params:      params,
			ArgueWindow: 64,
			Seed:        seed,
			Validator:   validator,
		}
		e, elapsed, err := runEngineRounds(cfg, rounds, txPerRound, 4) // 25% valid
		if err != nil {
			return Table{}, err
		}
		st := e.Governor(0).Stats()
		total := float64(st.Checked + st.Unchecked)
		if total == 0 {
			total = 1
		}
		txTotal := float64(rounds * txPerRound)
		t.Rows = append(t.Rows, []string{
			f3(f),
			f3(float64(st.Checked) / total),
			f3(float64(st.Unchecked) / total),
			f1(txTotal / elapsed.Seconds()),
			d64(int64(e.Governor(0).Store().Height())),
		})
	}
	return t, nil
}

// E7MessageComplexity measures §4.1: ordinary-block consensus costs
// O(b_limit·m) messages and a stake-transform block costs O(m²).
func E7MessageComplexity(seed int64, scale int) (Table, error) {
	const txPerRound = 24
	rounds := 2 * scale
	t := Table{
		ID:     "E7",
		Title:  "Communication complexity — O(b_limit·m) ordinary, O(m²) stake blocks",
		Header: []string{"m", "upload msgs/(n·m)", "block msgs/round", "block bytes/round", "bytes/(b_limit·m)", "stake msgs/round", "stake msgs/m²"},
		Notes: []string{
			fmt.Sprintf("%d rounds × %d tx, one stake transfer per round; upload messages = collector.batch multicasts, one per collector per governor per round whatever the round's transaction count; block messages = block dissemination to governors+providers; stake messages = VRF+NEW_STATE+signature+stake-block traffic among governors", rounds, txPerRound),
			"expected shape: bytes/(b_limit·m) roughly constant in m (linear scaling); stake msgs/m² roughly constant (quadratic scaling)",
		},
	}
	for _, m := range []int{4, 8, 16, 32} {
		params := reputation.DefaultParams()
		cfg := core.Config{
			Spec:        identity.TopologySpec{Providers: 8, Collectors: 4, Degree: 2},
			Governors:   m,
			Params:      params,
			ArgueWindow: 64,
			Seed:        seed,
			Validator:   engineValidator,
		}
		e, err := core.New(cfg)
		if err != nil {
			return Table{}, err
		}
		e.Bus().ResetStats()
		n := 0
		for r := 0; r < rounds; r++ {
			for i := 0; i < txPerRound; i++ {
				if _, err := e.SubmitTx(n%8, "bench", enginePayload(true, n), true); err != nil {
					return Table{}, err
				}
				n++
			}
			if err := e.SubmitStakeTransfer(r%m, (r+1)%m, 1); err != nil {
				return Table{}, err
			}
			if _, err := e.RunRound(); err != nil {
				return Table{}, err
			}
		}
		st := e.Bus().Stats()
		uploadMsgs := st.SentByKind[network.KindCollectorBatch]
		blockMsgs := st.SentByKind[network.KindBlock]
		blockBytes := st.BytesByKind[network.KindBlock]
		stakeMsgs := st.SentByKind[network.KindVRF] +
			st.SentByKind[network.KindStakeTx] +
			st.SentByKind[network.KindStakeState] +
			st.SentByKind[network.KindStakeSig] +
			st.SentByKind[network.KindStakeBlock]
		perRoundBlockMsgs := float64(blockMsgs) / float64(rounds)
		perRoundBlockBytes := float64(blockBytes) / float64(rounds)
		perRoundStake := float64(stakeMsgs) / float64(rounds)
		t.Rows = append(t.Rows, []string{
			d(m),
			f3(float64(uploadMsgs) / float64(rounds*cfg.Spec.Collectors*m)),
			f1(perRoundBlockMsgs),
			f1(perRoundBlockBytes),
			f3(perRoundBlockBytes / float64(txPerRound*m)),
			f1(perRoundStake),
			f3(perRoundStake / float64(m*m)),
		})
	}
	return t, nil
}
