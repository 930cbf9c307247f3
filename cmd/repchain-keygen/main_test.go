package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repchain/internal/transport"
)

func TestRunWritesLoadableRoster(t *testing.T) {
	out := filepath.Join(t.TempDir(), "roster.json")
	if err := run(4, 4, 2, 3, 7, 9901, "127.0.0.1", out); err != nil {
		t.Fatalf("run() error = %v", err)
	}
	d, err := transport.LoadDeployment(out)
	if err != nil {
		t.Fatalf("LoadDeployment() error = %v", err)
	}
	r, err := d.Roster()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Providers) != 4 || len(r.Collectors) != 4 || len(r.Governors) != 3 {
		t.Fatalf("roster sizes %d/%d/%d", len(r.Providers), len(r.Collectors), len(r.Governors))
	}
	// The file is the membership: no certificate authority fields.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"root_public_key", "cert_signature"} {
		if bytes.Contains(data, []byte(field)) {
			t.Fatalf("roster file carries %q", field)
		}
	}
	// Keys must be usable: sign/verify round trip for one node.
	spec, err := d.Node("governor/0")
	if err != nil {
		t.Fatal(err)
	}
	priv, err := spec.PrivateKeyOf()
	if err != nil {
		t.Fatal(err)
	}
	pub, err := spec.PublicKeyOf()
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify([]byte("probe"), priv.Sign([]byte("probe"))); err != nil {
		t.Fatalf("roster keys unusable: %v", err)
	}
}

func TestRunDeterministicSeed(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := run(2, 2, 1, 2, 42, 9901, "127.0.0.1", a); err != nil {
		t.Fatal(err)
	}
	if err := run(2, 2, 1, 2, 42, 9901, "127.0.0.1", b); err != nil {
		t.Fatal(err)
	}
	da, err := transport.LoadDeployment(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := transport.LoadDeployment(b)
	if err != nil {
		t.Fatal(err)
	}
	if da.Nodes[0].PublicKey != db.Nodes[0].PublicKey {
		t.Fatal("same seed produced different keys")
	}
}

func TestRunRejectsBadTopology(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	if err := run(3, 2, 1, 2, 0, 9901, "127.0.0.1", out); err == nil {
		t.Fatal("run() accepted a non-integral topology")
	}
}
