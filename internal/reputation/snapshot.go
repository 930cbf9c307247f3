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
	e := codec.Wrap(make([]byte, 0, 1024))
	e.PutString(snapshotTag)
	e.PutFloat64(t.params.Beta)
	e.PutFloat64(t.params.F)
	e.PutFloat64(t.params.Mu)
	e.PutFloat64(t.params.Nu)
	e.PutInt(len(t.perProvider))
	for _, in := range t.perProvider {
		e.PutInt(in.Experts())
		for pos := 0; pos < in.Experts(); pos++ {
			e.PutFloat64(in.Weight(pos))
			e.PutFloat64(in.ExpertLoss(pos))
		}
		e.PutFloat64(in.GovernorLoss())
		e.PutInt(in.Rounds())
	}
	e.PutInt(len(t.misreport))
	for c := range t.misreport {
		e.PutFloat64(t.misreport[c])
		e.PutFloat64(t.forge[c])
	}
	return e.Bytes()
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
	if tag := d.String(); tag != snapshotTag {
		d.Fail(fmt.Errorf("snapshot tag %q", tag))
	}
	for _, want := range []float64{t.params.Beta, t.params.F, t.params.Mu, t.params.Nu} {
		if got := d.Float64(); got != want {
			d.Fail(fmt.Errorf("snapshot parameter %v, table has %v", got, want))
		}
	}
	if np := d.Int(); np != len(t.perProvider) {
		d.Fail(fmt.Errorf("snapshot has %d providers, table has %d", np, len(t.perProvider)))
	}
	type column struct {
		weights, losses []float64
		govLoss         float64
		rounds          int
	}
	// The table's own sizes, never a count read, size the columns.
	columns := make([]column, len(t.perProvider))
	for k := range columns {
		ne := t.perProvider[k].Experts()
		if got := d.Int(); got != ne {
			d.Fail(fmt.Errorf("snapshot provider %d has %d experts, table has %d", k, got, ne))
		}
		col := &columns[k]
		col.weights = make([]float64, ne)
		col.losses = make([]float64, ne)
		for pos := 0; pos < ne; pos++ {
			col.weights[pos] = d.Float64()
			if w := col.weights[pos]; !(w > 0 && w <= 1) {
				d.Fail(fmt.Errorf("snapshot provider %d weight %v not in (0, 1]", k, w))
			}
			col.losses[pos] = d.Float64()
			checkLoss(d, k, "expert", col.losses[pos])
		}
		col.govLoss = d.Float64()
		checkLoss(d, k, "governor", col.govLoss)
		if col.rounds = d.Int(); col.rounds < 0 {
			d.Fail(fmt.Errorf("snapshot provider %d: %d rounds", k, col.rounds))
		}
	}
	nc := len(t.misreport)
	if got := d.Int(); got != nc {
		d.Fail(fmt.Errorf("snapshot has %d collectors, table has %d", got, nc))
	}
	scores := make([]float64, 2*nc) // misreport, forge per collector
	for i := range scores {
		if scores[i] = d.Float64(); math.IsNaN(scores[i]) || math.IsInf(scores[i], 0) {
			d.Fail(fmt.Errorf("snapshot collector %d score %v", i/2, scores[i]))
		}
	}
	if err := d.Finish("snapshot", ErrBadParams); err != nil {
		return err
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

// checkLoss refuses provider k's loss l when the update rules cannot
// produce it: losses only ever accumulate L_tx ∈ [0, 2].
func checkLoss(d *codec.Decoder, k int, what string, l float64) {
	if !(l >= 0) || math.IsInf(l, 1) {
		d.Fail(fmt.Errorf("snapshot provider %d: %s loss %v", k, what, l))
	}
}
