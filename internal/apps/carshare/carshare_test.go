package carshare

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repchain/internal/tx"
)

func validRequest() RideRequest {
	return RideRequest{
		Rider:       "alice",
		Origin:      "center",
		Destination: "airport",
		PickupAt:    1000,
		FareCents:   2500,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	req := validRequest()
	got, err := Decode(req.Encode())
	if err != nil {
		t.Fatalf("Decode() error = %v", err)
	}
	if got != req {
		t.Fatalf("round trip = %+v, want %+v", got, req)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("nope")); !errors.Is(err, ErrDecode) {
		t.Fatalf("error = %v, want ErrDecode", err)
	}
	// Trailing bytes rejected.
	b := append(validRequest().Encode(), 0x1)
	if _, err := Decode(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// FuzzAppPayloadDecode feeds the ride-request decoder — a validator
// runs it on every payload a provider submits — arbitrary bytes: it
// must never panic, what it refuses it refuses with ErrDecode, and what
// it accepts must re-encode to the same bytes.
func FuzzAppPayloadDecode(f *testing.F) {
	valid := validRequest().Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(RideRequest{}.Encode())
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := Decode(p)
		if err != nil {
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("refused without ErrDecode: %v", err)
			}
			return
		}
		if again := r.Encode(); !bytes.Equal(again, p) {
			t.Fatalf("accepted payload re-encodes to\n% x\nwant\n% x", again, p)
		}
	})
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(rider, o, d string, at, fare int64) bool {
		req := RideRequest{Rider: rider, Origin: o, Destination: d, PickupAt: at, FareCents: fare}
		got, err := Decode(req.Encode())
		return err == nil && got == req
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRulesValid(t *testing.T) {
	rules := DefaultRules()
	tests := []struct {
		name   string
		mutate func(*RideRequest)
		want   bool
	}{
		{"valid", func(*RideRequest) {}, true},
		{"empty rider", func(r *RideRequest) { r.Rider = "" }, false},
		{"unknown origin", func(r *RideRequest) { r.Origin = "atlantis" }, false},
		{"unknown destination", func(r *RideRequest) { r.Destination = "atlantis" }, false},
		{"same zone", func(r *RideRequest) { r.Destination = r.Origin }, false},
		{"fare too low", func(r *RideRequest) { r.FareCents = 1 }, false},
		{"fare too high", func(r *RideRequest) { r.FareCents = 1_000_000 }, false},
		{"negative pickup", func(r *RideRequest) { r.PickupAt = -5 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req := validRequest()
			tt.mutate(&req)
			if got := rules.Valid(req); got != tt.want {
				t.Fatalf("Valid(%+v) = %v, want %v", req, got, tt.want)
			}
		})
	}
}

func TestValidatorIntegratesWithTx(t *testing.T) {
	rules := DefaultRules()
	v := rules.Validator()
	good := tx.Transaction{Kind: Kind, Payload: validRequest().Encode()}
	if !v.Validate(good) {
		t.Fatal("valid request rejected")
	}
	if v.Validate(tx.Transaction{Kind: "other", Payload: validRequest().Encode()}) {
		t.Fatal("wrong kind accepted")
	}
	if v.Validate(tx.Transaction{Kind: Kind, Payload: []byte("junk")}) {
		t.Fatal("junk payload accepted")
	}
	bad := validRequest()
	bad.FareCents = 0
	if v.Validate(tx.Transaction{Kind: Kind, Payload: bad.Encode()}) {
		t.Fatal("invalid request accepted")
	}
}

func TestAssignPrefersZoneThenReputation(t *testing.T) {
	reqs := []RideRequest{validRequest()} // origin center
	drivers := []Driver{
		{Name: "faraway-high-rep", Zone: "north", Reputation: 0.9},
		{Name: "local-low-rep", Zone: "center", Reputation: 0.1},
	}
	assigned, unassigned, err := Assign(reqs, drivers)
	if err != nil {
		t.Fatal(err)
	}
	if len(assigned) != 1 || len(unassigned) != 0 {
		t.Fatalf("assigned %d unassigned %d", len(assigned), len(unassigned))
	}
	if assigned[0].Driver != "local-low-rep" {
		t.Fatalf("assigned %s, want the in-zone driver", assigned[0].Driver)
	}

	// Same zone: reputation breaks the tie.
	drivers = []Driver{
		{Name: "a", Zone: "center", Reputation: 0.2},
		{Name: "b", Zone: "center", Reputation: 0.8},
	}
	assigned, _, err = Assign(reqs, drivers)
	if err != nil {
		t.Fatal(err)
	}
	if assigned[0].Driver != "b" {
		t.Fatalf("assigned %s, want the higher-reputation driver", assigned[0].Driver)
	}
}

func TestAssignHighFareFirstAndOverflow(t *testing.T) {
	cheap := validRequest()
	cheap.Rider = "cheap"
	cheap.FareCents = 400
	rich := validRequest()
	rich.Rider = "rich"
	rich.FareCents = 9000
	drivers := []Driver{{Name: "only", Zone: "center", Reputation: 0.5}}
	assigned, unassigned, err := Assign([]RideRequest{cheap, rich}, drivers)
	if err != nil {
		t.Fatal(err)
	}
	if len(assigned) != 1 || assigned[0].Request.Rider != "rich" {
		t.Fatalf("assigned = %+v, want the high-fare request", assigned)
	}
	if len(unassigned) != 1 || unassigned[0].Rider != "cheap" {
		t.Fatalf("unassigned = %+v", unassigned)
	}
}

func TestAssignNoDrivers(t *testing.T) {
	_, _, err := Assign([]RideRequest{validRequest()}, nil)
	if !errors.Is(err, ErrNoDrivers) {
		t.Fatalf("error = %v, want ErrNoDrivers", err)
	}
}

func TestAssignDeterministic(t *testing.T) {
	reqs := []RideRequest{validRequest()}
	drivers := []Driver{
		{Name: "x", Zone: "center", Reputation: 0.5},
		{Name: "y", Zone: "center", Reputation: 0.5},
	}
	a1, _, err := Assign(reqs, drivers)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := Assign(reqs, drivers)
	if err != nil {
		t.Fatal(err)
	}
	if a1[0].Driver != a2[0].Driver {
		t.Fatal("assignment not deterministic")
	}
	if a1[0].Driver != "x" {
		t.Fatalf("tie should break by name: got %s", a1[0].Driver)
	}
}
