package interproc

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Origin is one occurrence of a nondeterminism source. Order-only
// origins (map iteration, select arrival, sync.Map.Range) are cleansed
// by sorting; value origins (wall clock, unseeded rand, environment,
// pointer formatting) survive any permutation.
type Origin struct {
	Desc  string
	Pos   token.Pos
	Order bool
}

// Taint is the lattice element: a set of source occurrences plus a set
// of input bits. An input bit is "3" (the whole of input 3, receiver
// at 0) or "3.buf" (one first-level field of input 3). Field bits are
// what keep the analysis usable: an event log that stores a wall
// timestamp into its ring taints the engine's events field, not the
// whole engine object every consensus value hangs off.
type Taint struct {
	origins map[*Origin]bool
	params  map[string]bool
}

func newTaint() Taint {
	return Taint{origins: map[*Origin]bool{}, params: map[string]bool{}}
}

func (t Taint) empty() bool { return len(t.origins) == 0 && len(t.params) == 0 }

func (t *Taint) ensure() {
	if t.origins == nil {
		t.origins = map[*Origin]bool{}
		t.params = map[string]bool{}
	}
}

func (t *Taint) add(o *Origin)       { t.ensure(); t.origins[o] = true }
func (t *Taint) addParam(bit string) { t.ensure(); t.params[bit] = true }
func (t *Taint) union(s Taint) bool {
	changed := false
	for o := range s.origins {
		if !t.origins[o] {
			t.ensure()
			t.origins[o] = true
			changed = true
		}
	}
	for p := range s.params {
		if !t.params[p] {
			t.ensure()
			t.params[p] = true
			changed = true
		}
	}
	return changed
}

// stripOrder removes order-only origins: a sorted permutation of a
// deterministic multiset is deterministic.
func (t *Taint) stripOrder() {
	for o := range t.origins {
		if o.Order {
			delete(t.origins, o)
		}
	}
}

// refineField maps a container's taint onto one of its fields: whole-
// input bits gain the field qualifier, while origins and already-
// qualified bits carry over unchanged (one level of field
// sensitivity).
func (t Taint) refineField(field string) Taint {
	out := newTaint()
	for o := range t.origins {
		out.origins[o] = true
	}
	for bit := range t.params {
		if !strings.Contains(bit, ".") {
			out.params[bit+"."+field] = true
		} else {
			out.params[bit] = true
		}
	}
	return out
}

// bitIndex parses the input index out of a bit ("3" or "3.f" → 3).
func bitIndex(bit string) int {
	if i := strings.IndexByte(bit, '.'); i >= 0 {
		bit = bit[:i]
	}
	n, err := strconv.Atoi(bit)
	if err != nil {
		return -1
	}
	return n
}

func (t Taint) originsSorted() []*Origin {
	out := make([]*Origin, 0, len(t.origins))
	for o := range t.origins {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Desc < out[j].Desc
	})
	return out
}

func (t Taint) paramsSorted() []string {
	out := make([]string, 0, len(t.params))
	for p := range t.params {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// fingerKey renders the taint canonically for summary fingerprints.
func (t Taint) fingerKey() string {
	var sb strings.Builder
	for _, o := range t.originsSorted() {
		fmt.Fprintf(&sb, "o%d:%s;", o.Pos, o.Desc)
	}
	for _, p := range t.paramsSorted() {
		fmt.Fprintf(&sb, "p%s;", p)
	}
	return sb.String()
}

// ParamSink records that an input bit reaches a catalogued sink
// through this function's body (possibly via further calls).
type ParamSink struct {
	Bit   string
	Sink  string
	Chain string
}

// ParamFlow records that pointee state of input To — field Field, or
// the whole pointee when Field is "" — absorbs the taint From carries,
// e.g. (*Encoder).PutBytes stores its argument into the receiver's
// buffer field.
type ParamFlow struct {
	To    int
	Field string
	From  Taint
}

// ParamGlobalField records that an input bit is stored into
// package-level state (a field reachable from a package-level
// variable), which is the one heap channel the engine tracks
// module-globally.
type ParamGlobalField struct {
	Bit   string
	Field string
}

// Summary is one function's memoized dataflow abstract: where its
// results derive from, which inputs reach sinks or escape into pointee
// or package-level state, and whether calling it can never return
// (goroleak's leak predicate).
type Summary struct {
	Results     []Taint
	ParamSinks  []ParamSink
	ParamFlows  []ParamFlow
	GlobalField []ParamGlobalField
	LoopNoExit  bool
	Leaky       bool
}

// fingerprint canonically serializes the summary so the SCC fixpoint
// can detect stabilization.
func (s *Summary) fingerprint() string {
	var sb strings.Builder
	for i, r := range s.Results {
		fmt.Fprintf(&sb, "r%d[%s]", i, r.fingerKey())
	}
	for _, ps := range s.ParamSinks {
		fmt.Fprintf(&sb, "s%s:%s:%s;", ps.Bit, ps.Sink, ps.Chain)
	}
	for _, pf := range s.ParamFlows {
		fmt.Fprintf(&sb, "f%d.%s[%s]", pf.To, pf.Field, pf.From.fingerKey())
	}
	for _, gf := range s.GlobalField {
		fmt.Fprintf(&sb, "g%s:%s;", gf.Bit, gf.Field)
	}
	fmt.Fprintf(&sb, "L%v%v", s.LoopNoExit, s.Leaky)
	return sb.String()
}

// Finding is one source-to-sink flow the reporting pass surfaces: the
// position where the nondeterministic value meets the sink-bound call,
// the origin it carries, the sink it reaches, and the call chain in
// between.
type Finding struct {
	Pos    token.Pos
	Origin *Origin
	Sink   string
	Chain  string
}

// maxChainHops bounds the call-chain strings carried in summaries.
const maxChainHops = 8

// fnAnalysis is the per-function flow-insensitive taint interpreter.
// It runs to a local fixpoint over the body (taint only grows), reads
// callee summaries from the program, and accumulates the function's
// own summary plus any fresh-origin findings.
type fnAnalysis struct {
	p  *Program
	fi *FuncInfo

	vars        map[types.Object]*Taint            // whole-variable taint
	cells       map[types.Object]map[string]*Taint // first-level field taint
	resultObjs  []types.Object                     // named results, for bare returns
	nestedRets  map[*ast.ReturnStmt]bool
	sum         *Summary
	paramIdx    map[types.Object]int
	paramSinks  map[string]ParamSink
	paramFlows  map[string]*ParamFlow
	globalField map[string]ParamGlobalField
	findings    map[string]Finding
	changed     bool
}

// analyzeFunc computes a function's summary; with a non-nil reporter
// it also emits the fresh-origin findings discovered along the way
// (the reporting pass dettaint drives per package).
func (p *Program) analyzeFunc(fi *FuncInfo, report func(Finding)) *Summary {
	a := &fnAnalysis{
		p:           p,
		fi:          fi,
		vars:        map[types.Object]*Taint{},
		cells:       map[types.Object]map[string]*Taint{},
		nestedRets:  map[*ast.ReturnStmt]bool{},
		paramIdx:    map[types.Object]int{},
		paramSinks:  map[string]ParamSink{},
		paramFlows:  map[string]*ParamFlow{},
		globalField: map[string]ParamGlobalField{},
		findings:    map[string]Finding{},
	}
	a.sum = &Summary{Results: make([]Taint, fi.Sig.Results().Len())}
	for i, obj := range fi.Params {
		t := newTaint()
		t.addParam(strconv.Itoa(i))
		a.vars[obj] = &t
		a.paramIdx[obj] = i
	}
	if res := fi.Decl.Type.Results; res != nil {
		for _, field := range res.List {
			for _, name := range field.Names {
				if obj := fi.Pkg.Info.Defs[name]; obj != nil {
					a.resultObjs = append(a.resultObjs, obj)
				}
			}
		}
	}
	// Returns inside nested function literals do not return from fi.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if r, ok := m.(*ast.ReturnStmt); ok {
					a.nestedRets[r] = true
				}
				return true
			})
		}
		return true
	})

	const maxPasses = 12
	for pass := 0; pass < maxPasses; pass++ {
		a.changed = false
		a.walk(fi.Decl.Body)
		if !a.changed {
			break
		}
	}

	a.sum.LoopNoExit = hasNoExitLoop(fi.Decl.Body)
	a.sum.Leaky = a.sum.LoopNoExit || p.callsLeaky(fi.Pkg, fi.Decl.Body)

	for _, key := range sortedKeys(a.paramSinks) {
		a.sum.ParamSinks = append(a.sum.ParamSinks, a.paramSinks[key])
	}
	for _, key := range sortedKeys(a.paramFlows) {
		a.sum.ParamFlows = append(a.sum.ParamFlows, *a.paramFlows[key])
	}
	for _, key := range sortedKeys(a.globalField) {
		a.sum.GlobalField = append(a.sum.GlobalField, a.globalField[key])
	}

	if report != nil {
		for _, key := range sortedKeys(a.findings) {
			report(a.findings[key])
		}
	}
	return a.sum
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (a *fnAnalysis) report(pos token.Pos, o *Origin, sink, chain string) {
	key := fmt.Sprintf("%d|%d|%s|%s", pos, o.Pos, o.Desc, sink)
	if _, ok := a.findings[key]; !ok {
		a.findings[key] = Finding{Pos: pos, Origin: o, Sink: sink, Chain: chain}
	}
}

func (a *fnAnalysis) addParamSink(bit, sink, chain string) {
	if strings.Count(chain, "→") > maxChainHops {
		chain = "…"
	}
	key := fmt.Sprintf("%s|%s", bit, sink)
	if _, ok := a.paramSinks[key]; !ok {
		a.paramSinks[key] = ParamSink{Bit: bit, Sink: sink, Chain: chain}
		a.changed = true
	}
}

func (a *fnAnalysis) addParamFlow(to int, field string, t Taint) {
	key := fmt.Sprintf("%d|%s", to, field)
	cur := a.paramFlows[key]
	if cur == nil {
		cur = &ParamFlow{To: to, Field: field, From: newTaint()}
		a.paramFlows[key] = cur
	}
	if cur.From.union(t) {
		a.changed = true
	}
}

func (a *fnAnalysis) addGlobalField(bit, field string) {
	key := fmt.Sprintf("%s|%s", bit, field)
	if _, ok := a.globalField[key]; !ok {
		a.globalField[key] = ParamGlobalField{Bit: bit, Field: field}
		a.changed = true
	}
}

// varTaint returns (and creates) the whole-variable taint cell.
func (a *fnAnalysis) varTaint(obj types.Object) *Taint {
	t := a.vars[obj]
	if t == nil {
		fresh := newTaint()
		t = &fresh
		a.vars[obj] = t
	}
	return t
}

// cellTaint returns (and creates) one field taint cell of a variable.
func (a *fnAnalysis) cellTaint(obj types.Object, field string) *Taint {
	m := a.cells[obj]
	if m == nil {
		m = map[string]*Taint{}
		a.cells[obj] = m
	}
	t := m[field]
	if t == nil {
		fresh := newTaint()
		t = &fresh
		m[field] = t
	}
	return t
}

// wholeTaint reads a variable including everything stored in its
// fields: passing the container passes its contents.
func (a *fnAnalysis) wholeTaint(obj types.Object) Taint {
	t := newTaint()
	if v := a.vars[obj]; v != nil {
		t.union(*v)
	}
	for _, c := range a.cells[obj] {
		t.union(*c)
	}
	return t
}

// taintLoc unions taint into (obj, field) — the whole variable when
// field is "" — and exports a ParamFlow when obj is a parameter, since
// mutating a parameter's pointee state is visible to the caller.
func (a *fnAnalysis) taintLoc(obj types.Object, field string, t Taint) {
	if obj == nil || t.empty() {
		return
	}
	var cell *Taint
	if field == "" {
		cell = a.varTaint(obj)
	} else {
		cell = a.cellTaint(obj, field)
	}
	if cell.union(t) {
		a.changed = true
	}
	if pi, isParam := a.paramIdx[obj]; isParam && refLike(obj.Type()) {
		a.addParamFlow(pi, field, t)
	}
}

// refLike reports whether a parameter of this type shares state with
// the caller's argument: writes through by-value structs, arrays, and
// basics stay local to the callee frame.
func refLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
}

// rootOf walks x.f[i].g chains to the variable the expression is
// rooted in, plus the field selected directly on that root ("" when
// the root itself is addressed). Package-level state and temporaries
// have no root.
func (a *fnAnalysis) rootOf(e ast.Expr) (types.Object, string) {
	field := ""
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := a.fi.Pkg.Info.Uses[x]
			if obj == nil {
				obj = a.fi.Pkg.Info.Defs[x]
			}
			if v, ok := obj.(*types.Var); ok && !isPackageLevel(v) {
				return v, field
			}
			return nil, ""
		case *ast.SelectorExpr:
			// A qualified package selector has no root variable.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := a.fi.Pkg.Info.Uses[id].(*types.PkgName); isPkg {
					return nil, ""
				}
			}
			if sel, ok := a.fi.Pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				field = x.Sel.Name // innermost selector wins: the root's own field
			} else {
				field = ""
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil, ""
		}
	}
}

func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// walk performs one pass over the body, interpreting every
// taint-relevant construct. ast.Inspect descends into nested function
// literals, whose effects (sink hits, captured-variable taint) belong
// to this frame.
func (a *fnAnalysis) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			a.assignStmt(s)
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					a.assign(name, a.exprTaint(s.Values[i]))
				}
			}
		case *ast.RangeStmt:
			a.rangeStmt(s)
		case *ast.SelectStmt:
			a.selectStmt(s)
		case *ast.SendStmt:
			a.assign(s.Chan, a.exprTaint(s.Value))
		case *ast.ReturnStmt:
			a.returnStmt(s)
		case *ast.CallExpr:
			a.evalCall(s) // sink checks and side effects in any position
		}
		return true
	})
}

func (a *fnAnalysis) assignStmt(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Tuple: call results, comma-ok forms.
		var taints []Taint
		switch rhs := ast.Unparen(s.Rhs[0]).(type) {
		case *ast.CallExpr:
			taints = a.evalCall(rhs)
		case *ast.TypeAssertExpr:
			taints = []Taint{a.exprTaint(rhs.X), {}}
		case *ast.IndexExpr:
			taints = []Taint{a.exprTaint(rhs.X), {}}
		case *ast.UnaryExpr:
			if rhs.Op == token.ARROW {
				taints = []Taint{a.exprTaint(rhs.X), {}}
			}
		}
		for i, lhs := range s.Lhs {
			if i < len(taints) {
				a.assign(lhs, taints[i])
			}
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i < len(s.Rhs) {
			a.assign(lhs, a.exprTaint(s.Rhs[i]))
		}
	}
}

// assign delivers taint to an assignable expression: variables union
// it whole; field/index/pointee writes land on the root variable's
// matching field cell; writes into package-level state register
// module-global field taint.
func (a *fnAnalysis) assign(lhs ast.Expr, t Taint) {
	if t.empty() {
		return
	}
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := a.fi.Pkg.Info.Defs[id]
		if obj == nil {
			obj = a.fi.Pkg.Info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok {
			if isPackageLevel(v) {
				a.registerGlobalWrite(v.Pkg().Path()+".var."+v.Name(), t)
			} else {
				a.taintLoc(v, "", t)
			}
		}
		return
	}
	if root, field := a.rootOf(lhs); root != nil {
		a.taintLoc(root, field, t)
		return
	}
	// No local root: this writes through package-level state. Record
	// the field in the module-global set.
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		if key := a.fieldKeyOf(sel); key != "" {
			a.registerGlobalWrite(key, t)
		}
	}
}

func (a *fnAnalysis) registerGlobalWrite(key string, t Taint) {
	for _, o := range t.originsSorted() {
		if _, known := a.p.fieldTaint[key]; !known {
			a.p.fieldTaint[key] = o
			a.changed = true
		}
	}
	for _, bit := range t.paramsSorted() {
		a.addGlobalField(bit, key)
	}
}

// fieldKeyOf names the field a selector selects, or "" for non-field
// selections.
func (a *fnAnalysis) fieldKeyOf(sel *ast.SelectorExpr) string {
	selection, ok := a.fi.Pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return ""
	}
	return fieldKey(selection)
}

func fieldKey(selection *types.Selection) string {
	obj := selection.Obj()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	return pkg + "." + recvTypeName(selection.Recv()) + "." + obj.Name()
}

func (a *fnAnalysis) rangeStmt(s *ast.RangeStmt) {
	t := a.exprTaint(s.X)
	tv, ok := a.fi.Pkg.Info.Types[s.X]
	if ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !a.sourceArgued(s.For) {
			t.ensure()
			t.add(a.p.origin("map iteration order", s.For, true))
		}
	}
	if s.Key != nil {
		a.assign(s.Key, t)
	}
	if s.Value != nil {
		a.assign(s.Value, t)
	}
}

// sourceArgued reports whether the line (or the line above) carries a
// reasoned //repchain:dettaint-ok annotation.
func (a *fnAnalysis) sourceArgued(pos token.Pos) bool {
	posn := a.p.Fset.Position(pos)
	if a.p.sourceArgued[fmt.Sprintf("%s:%d", posn.Filename, posn.Line)] {
		return true
	}
	return a.p.sourceArgued[fmt.Sprintf("%s:%d", posn.Filename, posn.Line-1)]
}

func (a *fnAnalysis) selectStmt(s *ast.SelectStmt) {
	comms := 0
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms < 2 || a.sourceArgued(s.Select) {
		return
	}
	o := a.p.origin("select arrival order", s.Select, true)
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		if as, ok := cc.Comm.(*ast.AssignStmt); ok {
			t := newTaint()
			t.add(o)
			for _, lhs := range as.Lhs {
				a.assign(lhs, t)
			}
		}
	}
}

func (a *fnAnalysis) returnStmt(s *ast.ReturnStmt) {
	if a.nestedRets[s] {
		return
	}
	if len(s.Results) == 0 {
		for i, obj := range a.resultObjs {
			if i < len(a.sum.Results) {
				if a.sum.Results[i].union(a.wholeTaint(obj)) {
					a.changed = true
				}
			}
		}
		return
	}
	if len(s.Results) == 1 && len(a.sum.Results) > 1 {
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			taints := a.evalCall(call)
			for i := range a.sum.Results {
				if i < len(taints) {
					if a.sum.Results[i].union(taints[i]) {
						a.changed = true
					}
				}
			}
			return
		}
	}
	for i, res := range s.Results {
		if i < len(a.sum.Results) {
			if a.sum.Results[i].union(a.exprTaint(res)) {
				a.changed = true
			}
		}
	}
}

// exprTaint computes the taint of an expression.
func (a *fnAnalysis) exprTaint(e ast.Expr) Taint {
	switch x := e.(type) {
	case *ast.Ident:
		obj := a.fi.Pkg.Info.Uses[x]
		if obj == nil {
			obj = a.fi.Pkg.Info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok && !isPackageLevel(v) {
			return a.wholeTaint(v)
		}
		return Taint{}
	case *ast.SelectorExpr:
		if selection, ok := a.fi.Pkg.Info.Selections[x]; ok && selection.Kind() == types.FieldVal {
			t := newTaint()
			if o, tainted := a.p.fieldTaint[fieldKey(selection)]; tainted {
				t.add(o)
			}
			t.union(a.fieldRead(x.X, x.Sel.Name))
			return t
		}
		return a.exprTaint(x.X) // method value, qualified name
	case *ast.CallExpr:
		res := a.evalCall(x)
		out := newTaint()
		for _, r := range res {
			out.union(r)
		}
		return out
	case *ast.ParenExpr:
		return a.exprTaint(x.X)
	case *ast.StarExpr:
		return a.exprTaint(x.X)
	case *ast.UnaryExpr:
		return a.exprTaint(x.X) // includes &x and <-ch (channel object taint)
	case *ast.BinaryExpr:
		t := a.exprTaint(x.X)
		t.union(a.exprTaint(x.Y))
		return t
	case *ast.IndexExpr:
		return a.exprTaint(x.X)
	case *ast.SliceExpr:
		return a.exprTaint(x.X)
	case *ast.TypeAssertExpr:
		return a.exprTaint(x.X)
	case *ast.CompositeLit:
		return a.compositeTaint(x)
	case *ast.FuncLit:
		return Taint{} // the body's effects are walked in this frame
	}
	return Taint{}
}

// fieldRead computes the taint of base.field: the root variable's
// matching field cell when base is a plain variable — with whole-input
// bits refined to field bits, which is what separates frame.Payload
// from frame.Trace — and the conservative whole taint of base
// otherwise.
func (a *fnAnalysis) fieldRead(base ast.Expr, field string) Taint {
	base = ast.Unparen(base)
	if star, ok := base.(*ast.StarExpr); ok {
		base = ast.Unparen(star.X)
	}
	if id, ok := base.(*ast.Ident); ok {
		obj := a.fi.Pkg.Info.Uses[id]
		if obj == nil {
			obj = a.fi.Pkg.Info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && !isPackageLevel(v) {
			t := newTaint()
			if c := a.cells[v]; c != nil {
				if ct := c[field]; ct != nil {
					t.union(*ct)
				}
			}
			if vt := a.vars[v]; vt != nil {
				t.union(vt.refineField(field))
			}
			return t
		}
		return Taint{}
	}
	return a.exprTaint(base)
}

func (a *fnAnalysis) compositeTaint(lit *ast.CompositeLit) Taint {
	t := newTaint()
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			t.union(a.exprTaint(kv.Value))
			continue
		}
		t.union(a.exprTaint(elt))
	}
	return t
}

// substitute maps a callee-space taint into the caller: origins pass
// through; bit "i" becomes the full taint of argument i; bit "i.f"
// becomes the taint of argument i's field f, computed field-
// sensitively at the call site.
func (a *fnAnalysis) substitute(t Taint, argTaints []Taint, argExprs []ast.Expr) Taint {
	out := newTaint()
	for o := range t.origins {
		out.origins[o] = true
	}
	for bit := range t.params {
		i := bitIndex(bit)
		if i < 0 || i >= len(argTaints) {
			continue
		}
		if dot := strings.IndexByte(bit, '.'); dot >= 0 {
			out.union(a.fieldRead(argExprs[i], bit[dot+1:]))
		} else {
			out.union(argTaints[i])
		}
	}
	return out
}

// evalCall interprets one call: sources, sanitizers, sinks, callee
// summaries, and the conservative propagation model for code outside
// the universe. It returns the taint of each result.
func (a *fnAnalysis) evalCall(call *ast.CallExpr) []Taint {
	info := a.fi.Pkg.Info

	// Conversion T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []Taint{a.exprTaint(call.Args[0])}
		}
		return []Taint{{}}
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append", "min", "max":
				t := newTaint()
				for _, arg := range call.Args {
					t.union(a.exprTaint(arg))
				}
				return []Taint{t}
			case "copy":
				if len(call.Args) == 2 {
					a.assign(call.Args[0], a.exprTaint(call.Args[1]))
				}
				return []Taint{{}}
			default:
				return []Taint{{}}
			}
		}
	}

	fn := calleeFunc(a.fi.Pkg, call)
	nResults := 1
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			nResults = sig.Results().Len()
		}
	} else if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			nResults = sig.Results().Len()
		}
	}

	// Argument vector: receiver (when the call is a method call on a
	// value) followed by the plain arguments, matching summary space.
	argExprs := make([]ast.Expr, 0, len(call.Args)+1)
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				argExprs = append(argExprs, sel.X)
			}
		}
	}
	argExprs = append(argExprs, call.Args...)
	argTaints := make([]Taint, len(argExprs))
	for i, arg := range argExprs {
		argTaints[i] = a.exprTaint(arg)
	}
	unionArgs := func() Taint {
		t := newTaint()
		for _, at := range argTaints {
			t.union(at)
		}
		return t
	}

	// Unresolvable call (function value): conservative propagation.
	if fn == nil {
		t := unionArgs()
		t.union(a.exprTaint(call.Fun))
		return repeatTaint(t, nResults)
	}

	// Source catalogue. A reasoned //repchain:dettaint-ok on the read
	// itself seeds no origin: the justification is given once, where
	// the nondeterministic value enters, instead of at every sink its
	// container later reaches.
	if desc, order, isSource := sourceFor(fn); isSource {
		t := newTaint()
		if !a.sourceArgued(call.Pos()) {
			t.add(a.p.origin(desc, call.Pos(), order))
		}
		return repeatTaint(t, nResults)
	}

	// Pointer formatting through fmt.
	if o := a.pointerFormatOrigin(fn, call); o != nil && !a.sourceArgued(call.Pos()) {
		t := unionArgs()
		t.add(o)
		return repeatTaint(t, nResults)
	}

	// Sanitizers: sorting launders order-only taint in place.
	if isSanitizer(fn) && len(call.Args) > 0 {
		if root, field := a.rootOf(call.Args[0]); root != nil {
			if field == "" {
				a.varTaint(root).stripOrder()
				for _, c := range a.cells[root] {
					c.stripOrder()
				}
			} else {
				a.cellTaint(root, field).stripOrder()
			}
		}
		return repeatTaint(Taint{}, nResults)
	}

	// sync.Map.Range hands its callback pairs in nondeterministic
	// order: seed the literal's parameters.
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Range" && len(call.Args) == 1 && !a.sourceArgued(call.Pos()) {
		if lit, ok := call.Args[0].(*ast.FuncLit); ok {
			o := a.p.origin("sync.Map.Range iteration order", call.Pos(), true)
			for _, field := range lit.Type.Params.List {
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						t := newTaint()
						t.add(o)
						a.taintLoc(obj, "", t)
					}
				}
			}
		}
	}

	// Sink catalogue: report fresh origins, export input-bit flows.
	if spec := sinkFor(fn); spec != nil {
		for _, idx := range spec.sinkArgIndexes(call, fn) {
			if idx >= len(argExprs) {
				continue
			}
			t := argTaints[idx]
			for _, o := range t.originsSorted() {
				a.report(argExprs[idx].Pos(), o, spec.label, "")
			}
			for _, bit := range t.paramsSorted() {
				a.addParamSink(bit, spec.label, spec.label)
			}
		}
	}

	// Universe callees: apply memoized summaries (merged over every
	// implementation for interface dispatch).
	callees := a.p.calleeInfos(a.fi.Pkg, call)
	if len(callees) > 0 {
		out := make([]Taint, nResults)
		for _, callee := range callees {
			sum := a.p.summary(callee.Key)
			if sum == nil {
				continue // same-SCC callee on the first iteration: bottom
			}
			for i := range out {
				if i < len(sum.Results) {
					out[i].union(a.substitute(sum.Results[i], argTaints, argExprs))
				}
			}
			for _, ps := range sum.ParamSinks {
				i := bitIndex(ps.Bit)
				if i < 0 || i >= len(argExprs) {
					continue
				}
				src := newTaint()
				src.addParam(ps.Bit)
				t := a.substitute(src, argTaints, argExprs)
				chain := callee.Name + " → " + ps.Chain
				for _, o := range t.originsSorted() {
					a.report(argExprs[i].Pos(), o, ps.Sink, chain)
				}
				for _, bit := range t.paramsSorted() {
					a.addParamSink(bit, ps.Sink, chain)
				}
			}
			for _, pf := range sum.ParamFlows {
				if pf.To >= len(argExprs) {
					continue
				}
				t := a.substitute(pf.From, argTaints, argExprs)
				if t.empty() {
					continue
				}
				if root, rf := a.rootOf(argExprs[pf.To]); root != nil {
					// The callee taints its input's field; locate that
					// state in the caller. When the argument is itself
					// a field of a local (e.events), one level of
					// precision is kept by landing on that field.
					target := pf.Field
					if rf != "" {
						target = rf
					}
					a.taintLoc(root, target, t)
				}
			}
			for _, gf := range sum.GlobalField {
				src := newTaint()
				src.addParam(gf.Bit)
				a.registerGlobalWrite(gf.Field, a.substitute(src, argTaints, argExprs))
			}
		}
		return out
	}

	// Outside the universe (standard library): results derive from
	// every argument, and a method call with tainted arguments may
	// store them in its receiver.
	t := unionArgs()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && !t.empty() && len(argExprs) > 0 {
		if root, rf := a.rootOf(argExprs[0]); root != nil {
			a.taintLoc(root, rf, t)
		}
	}
	return repeatTaint(t, nResults)
}

func repeatTaint(t Taint, n int) []Taint {
	if n < 1 {
		n = 1
	}
	out := make([]Taint, n)
	for i := range out {
		out[i] = t
	}
	return out
}

// pointerFormatOrigin detects %p (and chan/func arguments) flowing
// through the fmt formatting family: rendered addresses differ per
// process, so they are value-nondeterministic.
func (a *fnAnalysis) pointerFormatOrigin(fn *types.Func, call *ast.CallExpr) *Origin {
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return nil
	}
	switch fn.Name() {
	case "Sprintf", "Sprint", "Sprintln", "Fprintf", "Printf", "Errorf", "Appendf":
	default:
		return nil
	}
	for _, arg := range call.Args {
		if tv, ok := a.fi.Pkg.Info.Types[arg]; ok {
			if tv.Value != nil && tv.Value.Kind() == constant.String &&
				strings.Contains(constant.StringVal(tv.Value), "%p") {
				return a.p.origin("fmt %p pointer formatting", call.Pos(), false)
			}
			if tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Chan, *types.Signature:
					return a.p.origin("fmt rendering of a channel/function address", call.Pos(), false)
				}
			}
		}
	}
	return nil
}

// TaintFindings runs the reporting pass over one package's functions,
// reusing every memoized summary; it performs no new summary
// computations.
func (p *Program) TaintFindings(pkgPath string) []Finding {
	var out []Finding
	for _, key := range p.fnOrder {
		fi := p.fns[key]
		if fi.Pkg.Path != pkgPath {
			continue
		}
		p.analyzeFunc(fi, func(f Finding) { out = append(out, f) })
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		if out[i].Origin.Pos != out[j].Origin.Pos {
			return out[i].Origin.Pos < out[j].Origin.Pos
		}
		return out[i].Sink < out[j].Sink
	})
	return out
}
