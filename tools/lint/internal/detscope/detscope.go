// Package detscope names the packages whose code must be replica-
// deterministic: every governor replays the same inputs and must reach
// byte-identical blocks, reputation vectors, and stake state
// (DESIGN.md §4a/§4b/§4d), so map-iteration order and wall-clock reads
// are forbidden there by the detrange and wallclock analyzers.
package detscope

import "strings"

// packages are the import-path leaves under repchain/internal whose
// code runs identically on every replica.
var packages = []string{
	"core",
	"consensus",
	"codec",
	"reputation",
	"rwm",
	"mempool",
	"ledger",
	"shard",
	"par",
}

// Deterministic reports whether the import path belongs to the
// deterministic replica core (including subpackages).
func Deterministic(path string) bool {
	for _, p := range packages {
		root := "repchain/internal/" + p
		if path == root || strings.HasPrefix(path, root+"/") {
			return true
		}
	}
	return false
}
