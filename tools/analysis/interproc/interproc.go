// Package interproc is the summary-based interprocedural dataflow
// engine under the repchain-lint dettaint, goroleak, and atomicmix
// analyzers (DESIGN.md §4j).
//
// The engine builds a whole-module view over every package the loader
// parsed from source: a function index keyed by path-qualified names
// (stable across the source-checked and export-data type universes), a
// static callgraph with class-hierarchy resolution for interface
// method calls, and per-function taint summaries computed bottom-up
// over the callgraph's strongly connected components. Summaries are
// memoized on the Program, so analyzing the second package of a module
// reuses every summary the first package's analysis forced.
//
// The taint lattice, source/sink catalogue, and the precision
// trade-offs (variable-granular container taint, package-level-state
// field taint, no per-object heap model) are documented in
// DESIGN.md §4j.
package interproc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"repchain/tools/analysis"
)

// FuncInfo is one universe function: a function or method whose body
// was parsed from source and can therefore be summarized.
type FuncInfo struct {
	Key  string // path-qualified name, e.g. repchain/internal/codec.Encoder.PutUvarint
	Name string // display name for chains, e.g. (*Encoder).PutUvarint
	Pkg  *analysis.Package
	Decl *ast.FuncDecl
	Sig  *types.Signature
	// Params lists the value parameters with the receiver (when
	// present) at index 0, matching the call-site argument vector the
	// summaries are expressed against.
	Params []types.Object

	// callees are the static out-edges (universe keys only).
	callees []string
	// sccIndex is the function's component in bottom-up order.
	sccIndex int
}

// Program is the engine's whole-module state: the function index,
// callgraph condensation, memoized summaries, and the module-wide
// atomic-field census.
type Program struct {
	Fset *token.FileSet
	pkgs []*analysis.Package

	universe map[string]bool      // package paths loaded from source
	fns      map[string]*FuncInfo // function key → info
	fnOrder  []string             // sorted keys, for deterministic walks
	// methods indexes concrete universe methods by name, for
	// interface-call resolution (class-hierarchy style: a dynamic call
	// x.M(...) with x of interface type merges the summaries of every
	// universe method M with a compatible signature shape).
	methods map[string][]*FuncInfo

	sccs [][]*FuncInfo // bottom-up (callee-first) order

	summaries map[string]*Summary
	// fieldTaint records nondeterministic writes into package-level
	// state: field key → origin that reached it. Variable-rooted field
	// writes stay frame-local (see taint.go).
	fieldTaint map[string]*Origin

	// origins interns one Origin per (kind, position).
	origins map[string]*Origin

	// atomicFields maps the key of every struct field whose address is
	// passed to a sync/atomic function to one such call site.
	atomicFields map[string]token.Pos
	// atomicUses marks the exact selector nodes that appear inside
	// sync/atomic call arguments, so the census does not flag them.
	atomicUses map[*ast.SelectorExpr]bool

	// computations counts summary (re)computations, exposed so tests
	// can assert memoization across packages.
	computations int

	// sourceArgued marks file:line positions carrying a reasoned
	// //repchain:dettaint-ok annotation. A source call on such a line
	// seeds no origin: the flow is argued harmless once, at the read,
	// instead of at every sink its container reaches.
	sourceArgued map[string]bool
}

var (
	progMu    sync.Mutex
	progCache map[*analysis.Loader]*Program
	fsetCache map[*token.FileSet]*Program
)

// Get returns the memoized Program for a loader, building it on first
// use from every package the loader has parsed from source. The three
// interprocedural analyzers share one Program per driver run.
func Get(l *analysis.Loader) *Program {
	progMu.Lock()
	defer progMu.Unlock()
	if progCache == nil {
		progCache = map[*analysis.Loader]*Program{}
	}
	if p, ok := progCache[l]; ok {
		return p
	}
	p := build(l.Fset, l.Loaded())
	progCache[l] = p
	if fsetCache == nil {
		fsetCache = map[*token.FileSet]*Program{}
	}
	fsetCache[l.Fset] = p
	return p
}

// ByFset returns the Program built over a loader with this file set,
// or nil if no analyzer Prepare has built one. A Pass carries the
// file set but not the loader, so the per-package Run hooks of the
// interprocedural analyzers resolve their shared state through it.
func ByFset(fset *token.FileSet) *Program {
	progMu.Lock()
	defer progMu.Unlock()
	return fsetCache[fset]
}

// Computations reports how many per-function summary computations the
// engine has performed; a reporting pass over an already-summarized
// package must not grow it.
func (p *Program) Computations() int { return p.computations }

// build constructs the index, callgraph, SCC order, and summaries.
func build(fset *token.FileSet, pkgs []*analysis.Package) *Program {
	p := &Program{
		Fset:         fset,
		pkgs:         pkgs,
		universe:     map[string]bool{},
		fns:          map[string]*FuncInfo{},
		methods:      map[string][]*FuncInfo{},
		summaries:    map[string]*Summary{},
		fieldTaint:   map[string]*Origin{},
		origins:      map[string]*Origin{},
		atomicFields: map[string]token.Pos{},
		atomicUses:   map[*ast.SelectorExpr]bool{},
		sourceArgued: map[string]bool{},
	}
	for _, pkg := range pkgs {
		p.universe[pkg.Path] = true
	}
	for _, pkg := range pkgs {
		p.indexPackage(pkg)
	}
	sort.Strings(p.fnOrder)
	for _, key := range p.fnOrder {
		p.fns[key].callees = p.staticCallees(p.fns[key])
	}
	p.condense()
	p.computeSummaries()
	p.censusAtomics()
	return p
}

// indexPackage records the package's function declarations and its
// reasoned dettaint-ok annotation lines.
func (p *Program) indexPackage(pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				const srcPfx = "//repchain:dettaint-ok "
				if strings.HasPrefix(c.Text, srcPfx) && strings.TrimSpace(strings.TrimPrefix(c.Text, srcPfx)) != "" {
					posn := p.Fset.Position(c.Pos())
					p.sourceArgued[fmt.Sprintf("%s:%d", posn.Filename, posn.Line)] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig, ok := obj.Type().(*types.Signature)
			if !ok {
				continue
			}
			fi := &FuncInfo{
				Key:  FuncKey(obj),
				Name: displayName(obj),
				Pkg:  pkg,
				Decl: fd,
				Sig:  sig,
			}
			if recv := sig.Recv(); recv != nil {
				fi.Params = append(fi.Params, recv)
			}
			for i := 0; i < sig.Params().Len(); i++ {
				fi.Params = append(fi.Params, sig.Params().At(i))
			}
			if _, dup := p.fns[fi.Key]; dup {
				continue // identical key (should not happen); keep first
			}
			p.fns[fi.Key] = fi
			p.fnOrder = append(p.fnOrder, fi.Key)
			if sig.Recv() != nil {
				p.methods[obj.Name()] = append(p.methods[obj.Name()], fi)
			}
		}
	}
}

// FuncKey names a function or method so that the source-checked and
// export-data views of the same declaration agree: package path, then
// the named receiver type (pointer stripped), then the function name.
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		key += recvTypeName(sig.Recv().Type()) + "."
	}
	return key + fn.Name()
}

// recvTypeName names a receiver type: the Named identifier beneath any
// pointer, or the raw type string as a fallback.
func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch tt := t.(type) {
	case *types.Named:
		return tt.Obj().Name()
	case *types.Interface:
		return "interface"
	}
	return t.String()
}

// displayName renders a function for chain strings.
func displayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name := recvTypeName(sig.Recv().Type())
		if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
			name = "*" + name
		}
		return "(" + name + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// calleeInfos resolves a call expression to the universe functions it
// may invoke: the static target for direct calls, or every
// shape-compatible universe method for a call through an interface.
func (p *Program) calleeInfos(pkg *analysis.Package, call *ast.CallExpr) []*FuncInfo {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		var out []*FuncInfo
		for _, m := range p.methods[fn.Name()] {
			if m.Sig.Params().Len() == sig.Params().Len() && m.Sig.Results().Len() == sig.Results().Len() {
				out = append(out, m)
			}
		}
		return out
	}
	if fi, ok := p.fns[FuncKey(fn)]; ok {
		return []*FuncInfo{fi}
	}
	return nil
}

// calleeFunc resolves the *types.Func a call expression names, or nil
// for builtins, conversions, and calls through function values.
func calleeFunc(pkg *analysis.Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			fn, _ := pkg.Info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// staticCallees gathers the universe keys a function's body may call,
// interface dispatch included.
func (p *Program) staticCallees(fi *FuncInfo) []string {
	seen := map[string]bool{}
	var keys []string
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, callee := range p.calleeInfos(fi.Pkg, call) {
			if !seen[callee.Key] {
				seen[callee.Key] = true
				keys = append(keys, callee.Key)
			}
		}
		return true
	})
	sort.Strings(keys)
	return keys
}

// condense runs Tarjan's SCC algorithm over the callgraph and stores
// the components in bottom-up (callee-first) order, so summary
// computation visits callees before callers and iterates only within
// mutually recursive components.
func (p *Program) condense() {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0

	type frame struct {
		key string
		ci  int // next callee index to visit
	}
	for _, root := range p.fnOrder {
		if _, visited := index[root]; visited {
			continue
		}
		// Iterative Tarjan: recursion depth over a large module could
		// otherwise exceed the goroutine stack comfort zone.
		work := []frame{{key: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			fr := &work[len(work)-1]
			fi := p.fns[fr.key]
			advanced := false
			for fr.ci < len(fi.callees) {
				callee := fi.callees[fr.ci]
				fr.ci++
				if _, ok := index[callee]; !ok {
					index[callee] = next
					low[callee] = next
					next++
					stack = append(stack, callee)
					onStack[callee] = true
					work = append(work, frame{key: callee})
					advanced = true
					break
				} else if onStack[callee] && low[fr.key] > index[callee] {
					low[fr.key] = index[callee]
				}
			}
			if advanced {
				continue
			}
			if low[fr.key] == index[fr.key] {
				var scc []*FuncInfo
				for {
					k := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[k] = false
					fi := p.fns[k]
					fi.sccIndex = len(p.sccs)
					scc = append(scc, fi)
					if k == fr.key {
						break
					}
				}
				sort.Slice(scc, func(i, j int) bool { return scc[i].Key < scc[j].Key })
				p.sccs = append(p.sccs, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].key
				if low[parent] > low[fr.key] {
					low[parent] = low[fr.key]
				}
			}
		}
	}
}

// computeSummaries runs the bottom-up fixpoint: each SCC iterates
// until its members' summaries stabilize, and the whole schedule
// repeats while nondeterministic writes into package-level state keep
// surfacing new field taint (that information flows against the
// callee-first order).
func (p *Program) computeSummaries() {
	const maxOuter = 10
	for outer := 0; outer < maxOuter; outer++ {
		changed := false
		fieldsBefore := len(p.fieldTaint)
		for _, scc := range p.sccs {
			const maxInner = 10
			for inner := 0; inner < maxInner; inner++ {
				sccChanged := false
				for _, fi := range scc {
					sum := p.analyzeFunc(fi, nil)
					p.computations++
					old := p.summaries[fi.Key]
					if old == nil || old.fingerprint() != sum.fingerprint() {
						p.summaries[fi.Key] = sum
						sccChanged = true
						changed = true
					}
				}
				if !sccChanged {
					break
				}
			}
		}
		if !changed && len(p.fieldTaint) == fieldsBefore {
			return
		}
	}
}

// summary returns the memoized summary for a universe key, or nil.
func (p *Program) summary(key string) *Summary { return p.summaries[key] }

// origin interns one Origin per (description, position) pair.
func (p *Program) origin(desc string, pos token.Pos, order bool) *Origin {
	key := fmt.Sprintf("%s@%d", desc, pos)
	if o, ok := p.origins[key]; ok {
		return o
	}
	o := &Origin{Desc: desc, Pos: pos, Order: order}
	p.origins[key] = o
	return o
}
