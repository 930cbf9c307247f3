package insurance

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repchain/internal/tx"
)

func eligibleApp() Application {
	return Application{
		Applicant:         "bob",
		Age:               35,
		Smoker:            false,
		AnnualIncomeCents: 6_000_000,
		CoverageCents:     50_000_000,
		Conditions:        []string{"mild-asthma"},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := eligibleApp()
	got, err := Decode(a.Encode())
	if err != nil {
		t.Fatalf("Decode() error = %v", err)
	}
	if got.Applicant != a.Applicant || got.Age != a.Age || got.Smoker != a.Smoker ||
		got.AnnualIncomeCents != a.AnnualIncomeCents || got.CoverageCents != a.CoverageCents ||
		len(got.Conditions) != 1 || got.Conditions[0] != "mild-asthma" {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("x")); !errors.Is(err, ErrDecode) {
		t.Fatalf("error = %v, want ErrDecode", err)
	}
	b := append(eligibleApp().Encode(), 9)
	if _, err := Decode(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// FuzzAppPayloadDecode feeds the application decoder — a validator
// runs it on every payload a provider submits — arbitrary bytes: it
// must never panic, what it refuses it refuses with ErrDecode, and what
// it accepts must re-encode to the same bytes.
func FuzzAppPayloadDecode(f *testing.F) {
	valid := eligibleApp().Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(Application{Conditions: make([]string, maxConditions+1)}.Encode())
	f.Fuzz(func(t *testing.T, p []byte) {
		a, err := Decode(p)
		if err != nil {
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("refused without ErrDecode: %v", err)
			}
			return
		}
		if len(a.Conditions) > maxConditions {
			t.Fatalf("%d conditions accepted", len(a.Conditions))
		}
		if again := a.Encode(); !bytes.Equal(again, p) {
			t.Fatalf("accepted payload re-encodes to\n% x\nwant\n% x", again, p)
		}
	})
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(name string, age uint8, smoker bool, income, coverage int64, conds []string) bool {
		if len(conds) > 64 {
			conds = conds[:64]
		}
		a := Application{
			Applicant:         name,
			Age:               int(age),
			Smoker:            smoker,
			AnnualIncomeCents: income,
			CoverageCents:     coverage,
			Conditions:        conds,
		}
		got, err := Decode(a.Encode())
		if err != nil {
			return false
		}
		if got.Applicant != a.Applicant || got.Age != a.Age || len(got.Conditions) != len(a.Conditions) {
			return false
		}
		for i := range conds {
			if got.Conditions[i] != conds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEligibility(t *testing.T) {
	p := DefaultPolicy()
	tests := []struct {
		name   string
		mutate func(*Application)
		want   bool
	}{
		{"eligible", func(*Application) {}, true},
		{"no name", func(a *Application) { a.Applicant = "" }, false},
		{"too young", func(a *Application) { a.Age = 17 }, false},
		{"too old", func(a *Application) { a.Age = 76 }, false},
		{"old smoker", func(a *Application) { a.Age = 70; a.Smoker = true }, false},
		{"young smoker ok", func(a *Application) { a.Smoker = true }, true},
		{"zero income", func(a *Application) { a.AnnualIncomeCents = 0 }, false},
		{"zero coverage", func(a *Application) { a.CoverageCents = 0 }, false},
		{"over-covered", func(a *Application) { a.CoverageCents = a.AnnualIncomeCents * 21 }, false},
		{"disqualifying condition", func(a *Application) {
			a.Conditions = append(a.Conditions, "terminal-illness")
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := eligibleApp()
			tt.mutate(&a)
			if got := p.Eligible(a); got != tt.want {
				t.Fatalf("Eligible(%+v) = %v, want %v", a, got, tt.want)
			}
		})
	}
}

func TestValidatorIntegratesWithTx(t *testing.T) {
	p := DefaultPolicy()
	v := p.Validator()
	if !v.Validate(tx.Transaction{Kind: Kind, Payload: eligibleApp().Encode()}) {
		t.Fatal("eligible application rejected")
	}
	if v.Validate(tx.Transaction{Kind: "other", Payload: eligibleApp().Encode()}) {
		t.Fatal("wrong kind accepted")
	}
	bad := eligibleApp()
	bad.Age = 5
	if v.Validate(tx.Transaction{Kind: Kind, Payload: bad.Encode()}) {
		t.Fatal("ineligible application accepted")
	}
}

func TestRiskScoreMonotonicity(t *testing.T) {
	p := DefaultPolicy()
	young := eligibleApp()
	old := eligibleApp()
	old.Age = 60
	if p.RiskScore(old) <= p.RiskScore(young) {
		t.Fatal("risk must increase with age")
	}
	smoker := eligibleApp()
	smoker.Smoker = true
	if p.RiskScore(smoker) <= p.RiskScore(eligibleApp()) {
		t.Fatal("risk must increase for smokers")
	}
	sick := eligibleApp()
	sick.Conditions = append(sick.Conditions, "diabetes")
	if p.RiskScore(sick) <= p.RiskScore(eligibleApp()) {
		t.Fatal("risk must increase with conditions")
	}
}

func TestPremiumScalesWithCoverage(t *testing.T) {
	p := DefaultPolicy()
	small := eligibleApp()
	big := eligibleApp()
	big.CoverageCents = small.CoverageCents * 2
	if p.PremiumCents(big) != 2*p.PremiumCents(small) {
		t.Fatalf("premium not linear in coverage: %d vs %d",
			p.PremiumCents(big), p.PremiumCents(small))
	}
}
