package main

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repchain/internal/sim"
)

// TestTables: the tables subcommand prints a selected experiment with
// its timing line, and a bad ID fails with an error naming the valid
// IDs after the good ones have run.
func TestTables(t *testing.T) {
	var out strings.Builder
	if err := tables([]string{"-run", "E2", "-seed", "7"}, &out); err != nil {
		t.Fatalf("tables -run E2: %v", err)
	}
	for _, want := range []string{"== E2: Lemma 2", "(E2 completed in "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("tables -run E2 output lacks %q:\n%s", want, out.String())
		}
	}
	err := tables([]string{"-run", "E99"}, io.Discard)
	if !errors.Is(err, sim.ErrUnknown) || !strings.Contains(err.Error(), "E99") || !strings.Contains(err.Error(), "E13") {
		t.Fatalf("tables -run E99: err = %v, want ErrUnknown naming E99 and the valid IDs", err)
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, policy := range []string{"reputation-rwm", "check-all", "uniform-random", "majority-vote"} {
		t.Run(policy, func(t *testing.T) {
			err := run(2000, 2, 8, 8, policy, 0, 0.5, 0.6, 2, 1, 1, 0, 1)
			if err != nil {
				t.Fatalf("run(%s) error = %v", policy, err)
			}
		})
	}
}

func TestRunRejectsAllAdversarial(t *testing.T) {
	// liars + concealers covering every collector must be rejected.
	if err := run(100, 1, 4, 4, "reputation-rwm", 0, 0.5, 0.5, 3, 1, 1, 0, 1); err == nil {
		t.Fatal("run() accepted a fully adversarial collector set")
	}
}

func TestRunRejectsBadPolicy(t *testing.T) {
	if err := run(100, 1, 4, 4, "nope", 0, 0.5, 0.5, 1, 0, 1, 0, 1); err == nil {
		t.Fatal("run() accepted an unknown policy")
	}
}

func TestRunExplicitBeta(t *testing.T) {
	if err := run(500, 1, 4, 4, "reputation-rwm", 0.5, 0.5, 0.5, 1, 0, 1, 16, 1); err != nil {
		t.Fatalf("run() error = %v", err)
	}
}
