package main

import (
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// quietObs builds obsOptions with a discarding logger for tests.
func quietObs(adminAddr string, eventsCap int) obsOptions {
	return obsOptions{
		adminAddr: adminAddr,
		eventsCap: eventsCap,
		logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// TestDemoAlliance runs the full loopback demo: 11 nodes over real TCP
// sockets for 2 rounds.
func TestDemoAlliance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock demo")
	}
	if err := run("", "", true, 2, 800*time.Millisecond, "", 2, 99, "", quietObs("127.0.0.1:0", 1024), poolOptions{}); err != nil {
		t.Fatalf("demo run error = %v", err)
	}
}

func TestRunRequiresID(t *testing.T) {
	// Without -demo, -id is mandatory; with a missing roster the
	// loader must fail first.
	if err := run("/nonexistent/roster.json", "governor/0", false, 1, time.Second, "", 1, 1, "", quietObs("", 0), poolOptions{}); err == nil {
		t.Fatal("missing roster accepted")
	}
}

// TestRunRejectsStorageFlagsWithoutState: -snapshot-every and
// -segment-bytes shape the on-disk chain, so without -state they are
// refused with an error naming the missing flag, not silently dropped.
func TestRunRejectsStorageFlagsWithoutState(t *testing.T) {
	for name, pool := range map[string]poolOptions{
		"-snapshot-every": {snapshotEvery: 4},
		"-segment-bytes":  {segmentBytes: 1 << 16},
	} {
		err := run("", "", true, 1, time.Second, "", 1, 1, "", quietObs("", 0), pool)
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "-state") {
			t.Fatalf("%s without -state: err = %v, want one naming both flags", name, err)
		}
	}
}

func TestRunRejectsBadEpoch(t *testing.T) {
	if err := run("", "", true, 1, time.Second, "not-a-time", 1, 1, "", quietObs("", 0), poolOptions{}); err == nil {
		t.Fatal("bad epoch accepted")
	}
}
