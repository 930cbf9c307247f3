// Package dettaint proves, end to end, that no nondeterministic value
// reaches a consensus-critical sink. Sources are wall-clock reads,
// unseeded math/rand, map-iteration and select-arrival order,
// runtime/host probes, environment reads, and pointer formatting;
// sinks are signing bytes, hash and Merkle inputs, durable ledger
// frames, wire payloads, and reputation updates (the catalogue lives
// in tools/analysis/interproc). The flow is tracked through any call
// chain, struct field, or return value by the summary-based
// interprocedural engine, a whole-module proof with no package
// allowlist: every path from a source to a sink is enumerated and must
// be either absent, laundered (sorting strips order-only taint), or
// annotated //repchain:dettaint-ok <reason>. It is the suite's one
// determinism pass.
package dettaint

import (
	"fmt"
	"path/filepath"

	"repchain/tools/analysis"
	"repchain/tools/analysis/interproc"
	"repchain/tools/lint/internal/suppress"
)

// Directive is the suppression annotation this analyzer honours.
const Directive = "dettaint-ok"

// Analyzer reports source-to-sink nondeterminism flows.
var Analyzer = &analysis.Analyzer{
	Name: "dettaint",
	Doc: "forbid nondeterministic values (clocks, unseeded rand, map/select " +
		"order, host probes, %p) from flowing into signing bytes, hash inputs, " +
		"ledger frames, wire payloads, or reputation updates, through any call " +
		"chain; annotate unavoidable flows //repchain:dettaint-ok <reason>",
	Prepare: prepare,
	Run:     run,
}

func prepare(l *analysis.Loader, _ []*analysis.Package) error {
	interproc.Get(l)
	return nil
}

func run(pass *analysis.Pass) error {
	prog := interproc.ByFset(pass.Fset)
	if prog == nil {
		return fmt.Errorf("dettaint: no interprocedural program; the driver must call Prepare first")
	}
	sup := suppress.Collect(pass.Fset, pass.Files, Directive)
	sup.ReportMissingReasons(pass)
	for _, f := range prog.TaintFindings(pass.Pkg.Path()) {
		opos := pass.Fset.Position(f.Origin.Pos)
		via := ""
		if f.Chain != "" {
			via = " via " + f.Chain
		}
		sup.Reportf(pass, f.Pos,
			"nondeterministic value (%s at %s:%d) reaches %s%s; derive it deterministically, sort it if only order varies, or annotate //repchain:dettaint-ok <reason>",
			f.Origin.Desc, filepath.Base(opos.Filename), opos.Line, f.Sink, via)
	}
	return nil
}
