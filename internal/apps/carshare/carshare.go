// Package carshare models the paper's §5.1 use case: a merged
// car-sharing alliance running on the permissioned chain.
//
// Users are providers whose ride requests and payments are
// transactions; drivers are collectors who label a request +1 when
// they are willing and able to serve it (an unserviceable request —
// unknown zones, non-positive fare, impossible timing — is labeled
// -1); schedulers are governors who assign rides, pack blocks, and
// maintain the shared ledger across the merged platforms.
package carshare

import (
	"errors"
	"fmt"
	"sort"

	"repchain/internal/codec"
	"repchain/internal/tx"
)

// Kind is the transaction kind tag for ride requests.
const Kind = "carshare/ride-request"

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrDecode reports a malformed ride-request payload.
	ErrDecode = errors.New("carshare: decode failed")
	// ErrNoDrivers reports an assignment with no available drivers.
	ErrNoDrivers = errors.New("carshare: no drivers available")
)

// RideRequest is a user's trip order — the transaction payload.
type RideRequest struct {
	// Rider names the requesting user.
	Rider string
	// Origin and Destination are zone names in the alliance's map.
	Origin      string
	Destination string
	// PickupAt is the requested pickup time (Unix seconds or logical
	// ticks).
	PickupAt int64
	// FareCents is the offered fare.
	FareCents int64
}

// Encode returns the canonical payload bytes.
func (r RideRequest) Encode() []byte {
	e := codec.Wrap(make([]byte, 0, 64))
	e.PutString("carshare/v1")
	e.PutString(r.Rider)
	e.PutString(r.Origin)
	e.PutString(r.Destination)
	e.PutVarint(r.PickupAt)
	e.PutVarint(r.FareCents)
	return e.Bytes()
}

// Decode parses a ride-request payload.
func Decode(b []byte) (RideRequest, error) {
	d := codec.NewDecoder(b)
	if tag := d.String(); tag != "carshare/v1" {
		d.Fail(fmt.Errorf("payload tag %q", tag))
	}
	r := RideRequest{Rider: d.String(), Origin: d.String(), Destination: d.String(), PickupAt: d.Varint(), FareCents: d.Varint()}
	if err := d.Finish("ride request", ErrDecode); err != nil {
		return RideRequest{}, err
	}
	return r, nil
}

// Rules are the alliance's service rules, shared by every driver and
// scheduler.
type Rules struct {
	// Zones are the serviced zone names.
	Zones []string
	// MinFareCents is the lowest acceptable fare.
	MinFareCents int64
	// MaxFareCents guards against fat-finger fares.
	MaxFareCents int64
}

// DefaultRules returns a small city map.
func DefaultRules() Rules {
	return Rules{
		Zones:        []string{"airport", "center", "harbor", "north", "south", "university"},
		MinFareCents: 300,
		MaxFareCents: 50_000,
	}
}

// zoneSet indexes the rules' zones.
func (r Rules) zoneSet() map[string]bool {
	set := make(map[string]bool, len(r.Zones))
	for _, z := range r.Zones {
		set[z] = true
	}
	return set
}

// Valid reports whether a request is serviceable under the rules.
func (r Rules) Valid(req RideRequest) bool {
	zones := r.zoneSet()
	switch {
	case req.Rider == "":
		return false
	case !zones[req.Origin] || !zones[req.Destination]:
		return false
	case req.Origin == req.Destination:
		return false
	case req.FareCents < r.MinFareCents || req.FareCents > r.MaxFareCents:
		return false
	case req.PickupAt < 0:
		return false
	}
	return true
}

// Validator adapts the rules to the chain's validate(tx) primitive: a
// driver (collector) labels +1 exactly when the request is
// serviceable.
func (r Rules) Validator() tx.Validator {
	return tx.ValidatorFunc(func(t tx.Transaction) bool {
		if t.Kind != Kind {
			return false
		}
		req, err := Decode(t.Payload)
		if err != nil {
			return false
		}
		return r.Valid(req)
	})
}

// Driver is a registered driver with a current zone, used by the
// scheduler.
type Driver struct {
	// Name identifies the driver (collector).
	Name string
	// Zone is the driver's current zone.
	Zone string
	// Reputation is the scheduler's revenue share for the driver,
	// taken from the chain's reputation mechanism.
	Reputation float64
}

// Assignment pairs a request with a driver.
type Assignment struct {
	Request RideRequest
	Driver  string
}

// Assign implements the scheduler's decision of §5.1: "decide
// immediately which driver should serve the user according to their
// states, locations, and reputations". Each request goes to the
// highest-reputation free driver, preferring drivers already in the
// pickup zone; unassigned requests are returned for re-dispatch in a
// later round.
func Assign(requests []RideRequest, drivers []Driver) (assigned []Assignment, unassigned []RideRequest, err error) {
	if len(drivers) == 0 {
		return nil, nil, ErrNoDrivers
	}
	free := make([]Driver, len(drivers))
	copy(free, drivers)
	// Deterministic service order: highest fare first (alliance
	// revenue), ties by rider name.
	reqs := make([]RideRequest, len(requests))
	copy(reqs, requests)
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].FareCents != reqs[j].FareCents {
			return reqs[i].FareCents > reqs[j].FareCents
		}
		return reqs[i].Rider < reqs[j].Rider
	})
	for _, req := range reqs {
		best := -1
		for i, drv := range free {
			if best == -1 {
				best = i
				continue
			}
			b := free[best]
			// Prefer same-zone drivers, then higher reputation, then
			// name for determinism.
			reqZone := func(d Driver) int {
				if d.Zone == req.Origin {
					return 1
				}
				return 0
			}
			switch {
			case reqZone(drv) != reqZone(b):
				if reqZone(drv) > reqZone(b) {
					best = i
				}
			case drv.Reputation != b.Reputation:
				if drv.Reputation > b.Reputation {
					best = i
				}
			case drv.Name < b.Name:
				best = i
			}
		}
		if best == -1 {
			unassigned = append(unassigned, req)
			continue
		}
		assigned = append(assigned, Assignment{Request: req, Driver: free[best].Name})
		free = append(free[:best], free[best+1:]...)
		if len(free) == 0 {
			// Remaining requests wait for the next round.
			idx := indexOf(reqs, req)
			unassigned = append(unassigned, reqs[idx+1:]...)
			break
		}
	}
	return assigned, unassigned, nil
}

func indexOf(reqs []RideRequest, target RideRequest) int {
	for i, r := range reqs {
		if r == target {
			return i
		}
	}
	return len(reqs) - 1
}
