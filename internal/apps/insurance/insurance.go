// Package insurance models the paper's §5.2 use case: critical-illness
// insurance sold through independent agents.
//
// Potential policyholders are providers; their application materials
// are transactions signed with their keys. Independent agents are
// collectors who verify the materials and label them ±1. Insurance
// companies are governors who screen a fraction of the applications
// guided by each agent's reputation — an agent who "fills out
// inconsistent information in the survey... would also be found out".
package insurance

import (
	"errors"
	"fmt"

	"repchain/internal/codec"
	"repchain/internal/tx"
)

// Kind is the transaction kind tag for applications.
const Kind = "insurance/application"

// ErrDecode reports a malformed application payload.
var ErrDecode = errors.New("insurance: decode failed")

// Application is a policyholder's submitted material — the transaction
// payload.
type Application struct {
	// Applicant names the potential policyholder.
	Applicant string
	// Age in years.
	Age int
	// Smoker reports tobacco use.
	Smoker bool
	// AnnualIncomeCents is the declared income.
	AnnualIncomeCents int64
	// CoverageCents is the requested coverage amount.
	CoverageCents int64
	// Conditions lists declared pre-existing conditions.
	Conditions []string
}

// Encode returns the canonical payload bytes.
func (a Application) Encode() []byte {
	e := codec.Wrap(make([]byte, 0, 96))
	e.PutString("insurance/v1")
	e.PutString(a.Applicant)
	e.PutInt(a.Age)
	e.PutBool(a.Smoker)
	e.PutVarint(a.AnnualIncomeCents)
	e.PutVarint(a.CoverageCents)
	e.PutInt(len(a.Conditions))
	for _, c := range a.Conditions {
		e.PutString(c)
	}
	return e.Bytes()
}

// maxConditions bounds the conditions one application may declare.
const maxConditions = 64

// Decode parses an application payload.
func Decode(b []byte) (Application, error) {
	d := codec.NewDecoder(b)
	if tag := d.String(); tag != "insurance/v1" {
		d.Fail(fmt.Errorf("payload tag %q", tag))
	}
	a := Application{Applicant: d.String(), Age: d.Int(), Smoker: d.Bool(), AnnualIncomeCents: d.Varint(), CoverageCents: d.Varint()}
	// Each condition takes at least its length byte.
	n := d.Count(1)
	if n > maxConditions {
		d.Fail(fmt.Errorf("condition count %d", n))
	}
	for i := 0; i < n; i++ {
		a.Conditions = append(a.Conditions, d.String())
	}
	if err := d.Finish("application", ErrDecode); err != nil {
		return Application{}, err
	}
	return a, nil
}

// Policy is an insurer's underwriting rulebook.
type Policy struct {
	// MinAge and MaxAge bound insurable ages.
	MinAge, MaxAge int
	// MaxCoverageIncomeRatio caps coverage as a multiple of income.
	MaxCoverageIncomeRatio int64
	// Disqualifying lists conditions that reject an application
	// outright.
	Disqualifying []string
	// MaxSmokerAge: smokers above this age are declined.
	MaxSmokerAge int
}

// DefaultPolicy returns a representative critical-illness rulebook.
func DefaultPolicy() Policy {
	return Policy{
		MinAge:                 18,
		MaxAge:                 75,
		MaxCoverageIncomeRatio: 20,
		Disqualifying:          []string{"terminal-illness", "undisclosed-major-surgery"},
		MaxSmokerAge:           65,
	}
}

// Eligible reports whether an application satisfies the policy.
func (p Policy) Eligible(a Application) bool {
	switch {
	case a.Applicant == "":
		return false
	case a.Age < p.MinAge || a.Age > p.MaxAge:
		return false
	case a.Smoker && a.Age > p.MaxSmokerAge:
		return false
	case a.AnnualIncomeCents <= 0 || a.CoverageCents <= 0:
		return false
	case a.CoverageCents > a.AnnualIncomeCents*p.MaxCoverageIncomeRatio:
		return false
	}
	for _, c := range a.Conditions {
		for _, dq := range p.Disqualifying {
			if c == dq {
				return false
			}
		}
	}
	return true
}

// Validator adapts the policy to the chain's validate(tx) primitive:
// an honest agent labels +1 exactly when the application is eligible.
func (p Policy) Validator() tx.Validator {
	return tx.ValidatorFunc(func(t tx.Transaction) bool {
		if t.Kind != Kind {
			return false
		}
		a, err := Decode(t.Payload)
		if err != nil {
			return false
		}
		return p.Eligible(a)
	})
}

// RiskScore estimates an eligible applicant's annual risk in basis
// points, the quantity insurers price premiums from. It is a
// deliberately simple actuarial toy: age-linear base plus loadings.
func (p Policy) RiskScore(a Application) int {
	score := 20 + 4*a.Age
	if a.Smoker {
		score += score / 2
	}
	score += 150 * len(a.Conditions)
	return score
}

// PremiumCents prices annual premium from the risk score.
func (p Policy) PremiumCents(a Application) int64 {
	return a.CoverageCents * int64(p.RiskScore(a)) / 10_000
}
