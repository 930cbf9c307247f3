package node

import (
	"slices"

	"repchain/internal/par"
	"repchain/internal/tx"
)

// validateFloor is the number of validate(tx) calls in one pass below
// which a governor makes them on its own goroutine, so that a
// durable-small round's eight transactions never pay for a hand-off.
// It was not calibrated: a count cannot tell a trivial validator from a
// costly one, and with a trivial one a fan-out costs about 20 µs of wall
// per pass (one steady 256-tx screen: 96 µs inline, 119 µs fanned
// out), overhead that no end-to-end metric has yet shown beyond noise.
const validateFloor = 16

// validations is one governor's validate(tx) calls for the screen pass
// of its round, screenRound's checked draws (DESIGN §4a); argues are
// too few a pass to fan out and processArgues validates them inline.
// The pass begins, adds the transactions it means to validate, in its
// own order and where they stay until run returns, and reads each
// verdict by the index add returned once run has validated them,
// across cores from validateFloor up. validate(tx) reads nothing of the
// governor, so the verdicts, and all the pass then does with them in
// its own order, are the same at any worker count. A governor owns one
// and reuses it every pass, so once its slice has grown a pass
// allocates nothing per transaction.
type validations struct {
	v     tx.Validator
	calls []validation
	fn    func(int) error // validate, bound once
}

// validation is one call: its transaction until run returns, then its
// verdict.
type validation struct {
	t     *tx.Transaction
	valid bool
}

// begin starts a pass of at most n calls.
func (vs *validations) begin(n int) {
	vs.calls = slices.Grow(vs.calls[:0], n)
}

// add queues t for the pass's run and returns the index of its verdict.
func (vs *validations) add(t *tx.Transaction) int {
	vs.calls = append(vs.calls, validation{t: t})
	return len(vs.calls) - 1
}

// run validates every transaction the pass added, then drops them, so
// that they pin nothing past the pass.
func (vs *validations) run() {
	if vs.fn == nil {
		vs.fn = vs.validate
	}
	_ = par.RunIndexed(par.Procs(len(vs.calls), validateFloor), len(vs.calls), vs.fn) // validate never fails
	for i := range vs.calls {
		vs.calls[i].t = nil
	}
}

// valid is the verdict of the call add numbered i.
func (vs *validations) valid(i int) bool { return vs.calls[i].valid }

func (vs *validations) validate(i int) error {
	c := &vs.calls[i]
	c.valid = vs.v.Validate(*c.t)
	return nil
}
