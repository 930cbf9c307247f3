// Command repchain-keygen generates a deployment roster for a TCP
// alliance: node identities, roles and indices, Ed25519 keys, addresses,
// and the provider–collector topology, written as JSON consumed by
// repchain-node. The file is the alliance's membership; there is no
// certificate authority beside it.
//
// Usage:
//
//	repchain-keygen -providers 4 -collectors 4 -degree 2 -governors 3 -o roster.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/transport"
)

func main() {
	var (
		providers  = flag.Int("providers", 4, "number of providers (l)")
		collectors = flag.Int("collectors", 4, "number of collectors (n)")
		degree     = flag.Int("degree", 2, "collectors per provider (r)")
		governors  = flag.Int("governors", 3, "number of governors (m)")
		seedFlag   = flag.Int64("seed", 0, "deterministic seed; 0 = random keys")
		basePort   = flag.Int("base-port", 9701, "first TCP port; nodes get consecutive ports")
		host       = flag.String("host", "127.0.0.1", "host/IP for node addresses")
		out        = flag.String("o", "roster.json", "output file ('-' for stdout)")
	)
	flag.Parse()

	if err := run(*providers, *collectors, *degree, *governors, *seedFlag, *basePort, *host, *out); err != nil {
		fmt.Fprintln(os.Stderr, "repchain-keygen:", err)
		os.Exit(1)
	}
}

func run(providers, collectors, degree, governors int, seedFlag int64, basePort int, host, out string) error {
	topo, err := identity.NewRegularTopology(identity.TopologySpec{
		Providers:  providers,
		Collectors: collectors,
		Degree:     degree,
	})
	if err != nil {
		return err
	}
	var seed []byte
	if seedFlag != 0 {
		seed = make([]byte, crypto.SeedSize)
		for i := 0; i < 8; i++ {
			seed[i] = byte(seedFlag >> (8 * i))
		}
	}
	roster, err := identity.NewRoster(topo, governors, seed)
	if err != nil {
		return err
	}
	deployment, err := transport.NewDeployment(nil, roster, host, basePort)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(deployment, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal roster: %w", err)
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o600); err != nil {
		return fmt.Errorf("write roster: %w", err)
	}
	fmt.Printf("wrote %s: %d providers, %d collectors, %d governors on %s:%d..%d\n",
		out, providers, collectors, governors, host, basePort,
		basePort+providers+collectors+governors-1)
	return nil
}
