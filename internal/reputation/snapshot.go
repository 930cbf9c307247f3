package reputation

import (
	"fmt"
	"math"

	"repchain/internal/codec"
)

// Snapshot and Restore serialize a governor's full reputation state so
// a restarted governor resumes with its learned weights instead of
// re-trusting every collector equally. The encoding is deterministic
// (package codec) and versioned.

const snapshotTag = "repchain/reptable/v1"

// Snapshot returns the deterministic binary encoding of the table's
// mutable state: every per-provider weight vector with its loss
// accounting, and the misreport/forge scores.
func (t *Table) Snapshot() []byte {
	e := codec.NewEncoder(1024)
	e.PutString(snapshotTag)
	e.PutFloat64(t.params.Beta)
	e.PutFloat64(t.params.F)
	e.PutFloat64(t.params.Mu)
	e.PutFloat64(t.params.Nu)
	e.PutInt(len(t.perProvider))
	for k, in := range t.perProvider {
		e.PutInt(in.Experts())
		for pos := 0; pos < in.Experts(); pos++ {
			e.PutFloat64(in.Weight(pos))
			e.PutFloat64(in.ExpertLoss(pos))
		}
		e.PutFloat64(in.GovernorLoss())
		e.PutInt(in.Rounds())
		_ = k
	}
	e.PutInt(len(t.misreport))
	for c := range t.misreport {
		e.PutFloat64(t.misreport[c])
		e.PutFloat64(t.forge[c])
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// RestoreSnapshot loads a Snapshot into a freshly built table. The
// table's topology and parameters must match the snapshot's origin;
// mismatches are rejected, as is state the update rules cannot reach:
// weights start at 1 and are only ever multiplied by γ_tx or β, so a
// weight outside (0, 1] is refused, as are negative or non-finite
// losses and non-finite scores. A refused snapshot leaves the table
// unchanged.
func (t *Table) RestoreSnapshot(b []byte) error {
	d := codec.NewDecoder(b)
	tag, err := d.String()
	if err != nil || tag != snapshotTag {
		return fmt.Errorf("snapshot tag %q: %w", tag, ErrBadParams)
	}
	for _, want := range []float64{t.params.Beta, t.params.F, t.params.Mu, t.params.Nu} {
		got, err := d.Float64()
		if err != nil {
			return fmt.Errorf("snapshot params: %w", err)
		}
		if got != want {
			return fmt.Errorf("snapshot parameter %v, table has %v: %w", got, want, ErrBadParams)
		}
	}
	np, err := d.Int()
	if err != nil {
		return fmt.Errorf("snapshot provider count: %w", err)
	}
	if np != len(t.perProvider) {
		return fmt.Errorf("snapshot has %d providers, table has %d: %w", np, len(t.perProvider), ErrBadParams)
	}
	type column struct {
		weights, losses []float64
		govLoss         float64
		rounds          int
	}
	columns := make([]column, np)
	for k := range columns {
		ne, err := d.Int()
		if err != nil {
			return fmt.Errorf("snapshot provider %d expert count: %w", k, err)
		}
		if ne != t.perProvider[k].Experts() {
			return fmt.Errorf("snapshot provider %d has %d experts, table has %d: %w",
				k, ne, t.perProvider[k].Experts(), ErrBadParams)
		}
		col := &columns[k]
		col.weights = make([]float64, ne)
		col.losses = make([]float64, ne)
		for pos := 0; pos < ne; pos++ {
			if col.weights[pos], err = d.Float64(); err != nil {
				return fmt.Errorf("snapshot weight: %w", err)
			}
			if w := col.weights[pos]; !(w > 0 && w <= 1) {
				return fmt.Errorf("snapshot provider %d weight %v not in (0, 1]: %w", k, w, ErrBadParams)
			}
			if col.losses[pos], err = d.Float64(); err != nil {
				return fmt.Errorf("snapshot expert loss: %w", err)
			}
			if err := checkLoss("expert", col.losses[pos]); err != nil {
				return fmt.Errorf("snapshot provider %d: %w", k, err)
			}
		}
		if col.govLoss, err = d.Float64(); err != nil {
			return fmt.Errorf("snapshot governor loss: %w", err)
		}
		if err := checkLoss("governor", col.govLoss); err != nil {
			return fmt.Errorf("snapshot provider %d: %w", k, err)
		}
		if col.rounds, err = d.Int(); err != nil {
			return fmt.Errorf("snapshot rounds: %w", err)
		}
		if col.rounds < 0 {
			return fmt.Errorf("snapshot provider %d: %d rounds: %w", k, col.rounds, ErrBadParams)
		}
	}
	nc, err := d.Int()
	if err != nil {
		return fmt.Errorf("snapshot collector count: %w", err)
	}
	if nc != len(t.misreport) {
		return fmt.Errorf("snapshot has %d collectors, table has %d: %w", nc, len(t.misreport), ErrBadParams)
	}
	scores := make([]float64, 2*nc) // misreport, forge per collector
	for i := range scores {
		if scores[i], err = d.Float64(); err != nil {
			return fmt.Errorf("snapshot score: %w", err)
		}
		if math.IsNaN(scores[i]) || math.IsInf(scores[i], 0) {
			return fmt.Errorf("snapshot collector %d score %v: %w", i/2, scores[i], ErrBadParams)
		}
	}
	if err := d.Expect(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	for k, col := range columns {
		if err := t.perProvider[k].Restore(col.weights, col.losses, col.govLoss, col.rounds); err != nil {
			return fmt.Errorf("snapshot provider %d: %w", k, err)
		}
	}
	for c := 0; c < nc; c++ {
		t.misreport[c], t.forge[c] = scores[2*c], scores[2*c+1]
	}
	return nil
}

// checkLoss refuses a loss the update rules cannot produce: losses
// only ever accumulate L_tx ∈ [0, 2].
func checkLoss(what string, l float64) error {
	if !(l >= 0) || math.IsInf(l, 1) {
		return fmt.Errorf("%s loss %v: %w", what, l, ErrBadParams)
	}
	return nil
}
