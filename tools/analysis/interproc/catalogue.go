package interproc

import (
	"go/ast"
	"go/types"
	"strings"
)

// The source catalogue: calls whose results are nondeterministic by
// construction. Order-only sources (map ranges, multi-ready selects,
// sync.Map.Range) are seeded in taint.go because they are statements,
// not calls.

// sourceFor reports whether fn is a catalogued nondeterminism source,
// with the origin description and whether the nondeterminism is
// order-only (none of the call sources are).
func sourceFor(fn *types.Func) (desc string, order bool, ok bool) {
	if fn.Pkg() == nil {
		return "", false, false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
		// Methods: only seeded *rand.Rand generators would qualify, and
		// those inherit taint from their seed through the conservative
		// stdlib propagation model instead.
		return "", false, false
	}
	switch pkg {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return "time." + name + " wall-clock read", false, true
		}
	case "math/rand", "math/rand/v2":
		if strings.HasPrefix(name, "New") || name == "Seed" {
			return "", false, false
		}
		return "unseeded " + pkg + "." + name, false, true
	case "runtime":
		switch name {
		case "GOMAXPROCS", "NumCPU", "NumGoroutine", "NumCgoCall":
			return "runtime." + name + " scheduler/host probe", false, true
		}
	case "os":
		switch name {
		case "Environ", "Getenv", "LookupEnv", "Hostname", "Getpid", "Getppid", "Getuid":
			return "os." + name + " process-environment read", false, true
		}
	}
	return "", false, false
}

// isSanitizer reports whether fn launders order-only taint: sorting a
// permutation of a deterministic multiset yields a deterministic
// sequence. Value taint (clocks, rand, environment) survives sorting
// and is not stripped.
func isSanitizer(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

// sinkSpec is one consensus-critical sink: a function whose listed
// arguments must never receive nondeterministic bytes, because they
// feed signatures, hashes, durable ledger frames, wire payloads, or
// reputation accounting.
type sinkSpec struct {
	pkg   string // package path
	recv  string // receiver type name; "" for package-level functions
	name  string
	args  []int // argument-vector indexes (receiver at 0); nil = every non-receiver argument
	label string
}

// sinks is the consensus-critical catalogue. Paths name the real
// module; analysistest fixtures reuse the same import paths under
// testdata/src, so one catalogue serves both.
var sinks = []sinkSpec{
	// Signing and signature verification: the message bytes are the
	// protocol's commitment; any nondeterminism here forks honest nodes.
	{pkg: "repchain/internal/crypto", recv: "PrivateKey", name: "Sign", label: "crypto.Sign message bytes"},
	{pkg: "repchain/internal/crypto", recv: "PublicKey", name: "Verify", args: []int{1}, label: "crypto.Verify message bytes"},
	{pkg: "repchain/internal/crypto", recv: "VerifyCache", name: "VerifyBatch", label: "crypto batch-verify items"},
	{pkg: "repchain/internal/crypto", name: "VerifyBatch", label: "crypto batch-verify items"},
	// Hash inputs: block hashes and Merkle roots must be replayable.
	{pkg: "repchain/internal/crypto", recv: "MerkleBuilder", name: "Add", label: "Merkle leaf bytes"},
	{pkg: "repchain/internal/crypto", name: "MerkleRoot", label: "Merkle leaf bytes"},
	{pkg: "repchain/internal/crypto", name: "Sum", label: "block-hash input bytes"},
	{pkg: "repchain/internal/crypto", name: "SumParts", label: "block-hash input bytes"},
	// Durable ledger frames.
	{pkg: "repchain/internal/ledger", recv: "MemoryStore", name: "Append", label: "ledger append"},
	{pkg: "repchain/internal/ledger", recv: "FileStore", name: "Append", label: "ledger append"},
	// Wire payloads: both sides decode these into consensus state.
	{pkg: "repchain/internal/transport", recv: "Endpoint", name: "Send", args: []int{3}, label: "wire payload"},
	{pkg: "repchain/internal/transport", recv: "Endpoint", name: "Multicast", args: []int{3}, label: "wire payload"},
	// Reputation accounting: scores feed leader election.
	{pkg: "repchain/internal/reputation", recv: "Table", name: "RecordChecked", label: "reputation update"},
	{pkg: "repchain/internal/reputation", recv: "Table", name: "RecordRevealed", label: "reputation update"},
	{pkg: "repchain/internal/reputation", recv: "Table", name: "RecordForgery", label: "reputation update"},
}

// sinkFor returns the catalogue entry fn matches, or nil.
func sinkFor(fn *types.Func) *sinkSpec {
	if fn.Pkg() == nil {
		return nil
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	for i := range sinks {
		s := &sinks[i]
		if s.pkg == pkg && s.name == name && s.recv == recv {
			return s
		}
	}
	return nil
}

// sinkArgIndexes resolves the spec's sink positions for one call, in
// argument-vector space (receiver at index 0 when fn is a method).
func (s *sinkSpec) sinkArgIndexes(call *ast.CallExpr, fn *types.Func) []int {
	if s.args != nil {
		return s.args
	}
	offset := 0
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		offset = 1
	}
	out := make([]int, 0, len(call.Args))
	for i := range call.Args {
		out = append(out, offset+i)
	}
	return out
}
