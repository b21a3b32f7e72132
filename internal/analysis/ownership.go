package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Ownership/lifetime dataflow: a path-sensitive, must-alias abstract
// interpretation over function bodies with an acquire→use→release
// lattice, composed across functions and packages by per-function
// summaries the same way the clock-taint layer composes (dependencies
// first, intra-package fixpoint, cached on the Program under factsMu).
//
// A checker instantiates the engine with an OwnModel naming the
// resource's primitive acquire and release operations (pool Get / Put,
// mapFile / TraceFile.Close). The walker then tracks
// each acquired resource along every control-flow path:
//
//   - a path that leaves the function while a resource is live (and not
//     covered by a deferred release) is a leak — the error-return leak
//     class the lattice exists for;
//   - a use of a binding after its resource was released is a
//     use-after-release;
//   - a second release is a double release (unless the model declares
//     releases idempotent, Close-style);
//   - storing a resource into a field, global, channel or composite
//     that leaves the function transfers ownership out (escape): the
//     local obligation ends and the receiver's summary carries it on.
//
// Must-alias on purpose: only plain identifier bindings are tracked, so
// every transition the walker applies is one the source spells out.
// May-alias flows (container elements, fields read back out) deliberately
// drop to "untracked", which makes unknown callees and handoff patterns
// lenient rather than noisy — release of an untracked value is ignored.
//
// Error-branch awareness: a tuple assignment that binds a resource and
// an error links the two; on the `err != nil` arm the resource becomes
// void (the acquire failed, there is nothing to release), which is what
// keeps `f, err := Open(...); if err != nil { return err }` clean while
// still catching an early return that skips a release after a
// *successful* acquire.

// OwnEffect is what a callee does to one resource-carrying input, the
// three-point lattice Borrow ⊑ Release ⊑ Escape that keeps summaries
// finite and their fixpoint trivially terminating.
type OwnEffect uint8

const (
	// OwnBorrow: the callee uses the resource and returns it to the
	// caller's obligation unchanged (the default for unknown callees).
	OwnBorrow OwnEffect = iota
	// OwnRelease: the callee releases the resource on every path.
	OwnRelease
	// OwnEscape: the callee stores the resource beyond the call — the
	// caller's local obligation ends; lifetime is now someone else's.
	OwnEscape
)

func (e OwnEffect) String() string {
	switch e {
	case OwnRelease:
		return "release"
	case OwnEscape:
		return "escape"
	case OwnBorrow:
		return "borrow"
	}
	return "borrow"
}

// OwnSummary is one function's composed ownership behavior: the effect
// on its receiver and each parameter, and whether a result carries a
// fresh resource obligation out to the caller.
type OwnSummary struct {
	Recv   OwnEffect
	Params []OwnEffect
	// Acquires: some result carries a resource the caller must release;
	// AcquireResult is its index in the result tuple.
	Acquires      bool
	AcquireResult int
}

func (s OwnSummary) equal(o OwnSummary) bool {
	if s.Recv != o.Recv || s.Acquires != o.Acquires || s.AcquireResult != o.AcquireResult || len(s.Params) != len(o.Params) {
		return false
	}
	for i := range s.Params {
		if s.Params[i] != o.Params[i] {
			return false
		}
	}
	return true
}

// OwnModel describes one resource class to the engine.
type OwnModel struct {
	// Name keys the summary cache; one model, one fact space.
	Name string
	// What names the resource in messages ("pooled batch").
	What string
	// Acquire classifies a call as creating a fresh tracked resource and
	// returns the index of the call result that carries it.
	Acquire func(info *types.Info, call *ast.CallExpr) (result int, ok bool)
	// Release classifies a call as the primitive release and returns the
	// operand carrying the resource: -1 the receiver, n≥0 argument n.
	Release func(info *types.Info, call *ast.CallExpr) (operand int, ok bool)
	// Tracks reports whether a value of type t can carry the resource;
	// parameters (and receivers) of tracking type get summary
	// obligations. nil tracks nothing, so only acquire results bind.
	Tracks func(t types.Type) bool
	// AllowDoubleRelease: releases are idempotent (Close-style), so a
	// second release is not a finding.
	AllowDoubleRelease bool
	// FixFor, when set, builds the mechanical fix attached to a pure
	// leak (a resource no path releases), e.g. inserting the missing
	// `defer pool.Put(b)` after the acquire statement.
	FixFor func(r *OwnResource) []SuggestedFix
}

// OwnResource is one tracked resource: identity and acquire-site facts
// shared by every path, while each path carries its own state for it.
type OwnResource struct {
	// Pos is the acquire site, where leaks are reported.
	Pos token.Pos
	// Desc renders the acquiring call ("p.Get"); BindName the first
	// identifier bound to the result ("b"), if any.
	Desc     string
	BindName string
	// RecvPath is the stable path of the acquiring call's receiver
	// ("f.bpool"), and AcquireEnd the end of the acquiring statement —
	// together what a defer-insertion fix needs.
	RecvPath   string
	AcquireEnd token.Pos

	// param: -2 fresh acquire, -1 receiver, n≥0 parameter n (summary
	// obligations bound at function entry).
	param        int
	everReleased bool
	leakReported bool
	useReported  bool
}

// name renders the resource for messages.
func (r *OwnResource) name() string {
	if r.BindName != "" {
		return fmt.Sprintf("%s (from %s)", r.BindName, r.Desc)
	}
	return "the result of " + r.Desc
}

// Per-path resource states.
const (
	resLive     uint8 = iota // obligation open
	resReleased              // released on this path
	resEscaped               // ownership transferred out
	resVoid                  // acquire failed on this path (error arm)
	resMaybe                 // released on some merged-in paths only
)

type resState struct {
	st       uint8
	deferred bool      // a deferred release covers function exit
	relPos   token.Pos // first release site, for messages
}

// ownState is the abstract state of one path: must-alias bindings from
// identifiers to resources, per-resource lifecycle state, and the
// error-variable links that make acquire failure arms void.
type ownState struct {
	bind    map[types.Object]*OwnResource
	res     map[*OwnResource]resState
	errLink map[types.Object]*OwnResource
	exited  bool
}

func newOwnState() *ownState {
	return &ownState{
		bind:    map[types.Object]*OwnResource{},
		res:     map[*OwnResource]resState{},
		errLink: map[types.Object]*OwnResource{},
	}
}

func (s *ownState) clone() *ownState {
	c := newOwnState()
	for k, v := range s.bind {
		c.bind[k] = v
	}
	for k, v := range s.res {
		c.res[k] = v
	}
	for k, v := range s.errLink {
		c.errLink[k] = v
	}
	c.exited = s.exited
	return c
}

// carried is a scanned expression's resource value, with the result
// tuple index it occupies (only calls produce idx > 0).
type carried struct {
	r   *OwnResource
	idx int
}

// ownWalker interprets one function body under one model.
type ownWalker struct {
	pkg       *Package
	model     *OwnModel
	pass      *Pass // nil in summary-only mode
	summaryOf func(*types.Func) (OwnSummary, bool)

	recvRes      *OwnResource
	paramRes     []*OwnResource
	namedResults []types.Object

	// Exit accounting for the summary: how many normal exits there are
	// and, per resource, on how many of them it was released (or void).
	exits     int
	relAtExit map[*OwnResource]int
	escaped   map[*OwnResource]bool
	acquires  bool
	acqIdx    int

	// Leaks found while walking, emitted by flushLeaks once the final
	// everReleased state of every resource is known.
	leaks []ownLeak
}

// ownLeak is one buffered leak finding.
type ownLeak struct {
	r     *OwnResource
	maybe bool // released on some merged-in path
	at    token.Pos
}

// OwnCheck runs the model's lifecycle rules over every function of the
// pass's package, reporting violations through the pass. Summaries for
// callees — same package or dependencies — come from the program-level
// fixpoint, so obligations follow calls across package boundaries.
func OwnCheck(pass *Pass, model *OwnModel) {
	for _, ff := range pass.FuncDecls() {
		w := &ownWalker{
			pkg:   pass.Prog.pkgOf(pass),
			model: model,
			pass:  pass,
			summaryOf: func(fn *types.Func) (OwnSummary, bool) {
				return pass.Prog.OwnSummaryOf(model, fn)
			},
		}
		if w.pkg == nil {
			return
		}
		w.walkFunc(ff.Decl)
	}
}

// pkgOf maps a pass back to its loaded package.
func (p *Program) pkgOf(pass *Pass) *Package {
	return p.pkgs[pass.Path]
}

// OwnSummaryOf returns fn's summary under model, computing (and
// caching) its package's summaries — dependencies first — on demand.
// ok is false for functions outside the program. Safe for concurrent
// use; the coarse factsMu mirrors the clock-taint layer.
func (p *Program) OwnSummaryOf(model *OwnModel, fn *types.Func) (OwnSummary, bool) {
	p.factsMu.Lock()
	defer p.factsMu.Unlock()
	if fn.Pkg() == nil {
		return OwnSummary{}, false
	}
	if pkg, ok := p.pkgs[fn.Pkg().Path()]; ok {
		p.summarizeOwnLocked(model, pkg)
	}
	sum, ok := p.ownFacts[model.Name][fn]
	return sum, ok
}

// summarizeOwnLocked computes pkg's summaries under model to a
// fixpoint, dependencies first. The per-function transfer is monotone
// over a finite lattice in practice; the iteration cap is a backstop
// that keeps pathological recursion terminating (the partial result is
// conservative: un-converged functions read as Borrow).
func (p *Program) summarizeOwnLocked(model *OwnModel, pkg *Package) {
	if p.ownDone == nil {
		p.ownDone = map[string]map[*Package]bool{}
		p.ownFacts = map[string]map[*types.Func]OwnSummary{}
	}
	if p.ownDone[model.Name] == nil {
		p.ownDone[model.Name] = map[*Package]bool{}
		p.ownFacts[model.Name] = map[*types.Func]OwnSummary{}
	}
	if p.ownDone[model.Name][pkg] {
		return
	}
	p.ownDone[model.Name][pkg] = true
	for _, dep := range p.LocalImports(pkg) {
		p.summarizeOwnLocked(model, dep)
	}
	type fnDecl struct {
		fn *types.Func
		fd *ast.FuncDecl
	}
	var decls []fnDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls = append(decls, fnDecl{fn, fd})
				}
			}
		}
	}
	facts := p.ownFacts[model.Name]
	for iter := 0; iter < 8; iter++ {
		changed := false
		for _, d := range decls {
			w := &ownWalker{
				pkg:   pkg,
				model: model,
				summaryOf: func(fn *types.Func) (OwnSummary, bool) {
					sum, ok := facts[fn]
					return sum, ok
				},
			}
			sum := w.walkFunc(d.fd)
			if !sum.equal(facts[d.fn]) {
				facts[d.fn] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// walkFunc interprets one declaration body and returns its summary.
func (w *ownWalker) walkFunc(fd *ast.FuncDecl) OwnSummary {
	fn, _ := w.pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil || fd.Body == nil {
		return OwnSummary{}
	}
	sig := fn.Type().(*types.Signature)
	s := newOwnState()
	w.relAtExit = map[*OwnResource]int{}
	w.escaped = map[*OwnResource]bool{}

	tracks := func(t types.Type) bool {
		return w.model.Tracks != nil && t != nil && w.model.Tracks(t)
	}
	if recv := sig.Recv(); recv != nil && tracks(recv.Type()) {
		w.recvRes = &OwnResource{Pos: fd.Pos(), Desc: "receiver", BindName: recv.Name(), param: -1}
		s.bind[recv] = w.recvRes
		s.res[w.recvRes] = resState{st: resLive}
	}
	w.paramRes = make([]*OwnResource, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		prm := sig.Params().At(i)
		if !tracks(prm.Type()) {
			continue
		}
		r := &OwnResource{Pos: fd.Pos(), Desc: "parameter", BindName: prm.Name(), param: i}
		w.paramRes[i] = r
		s.bind[prm] = r
		s.res[r] = resState{st: resLive}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if r := sig.Results().At(i); r.Name() != "" {
			w.namedResults = append(w.namedResults, r)
		}
	}

	end := w.walkBlock(fd.Body.List, s, 0)
	w.checkExit(end, fd.Body.End())
	w.flushLeaks()

	sum := OwnSummary{Params: make([]OwnEffect, sig.Params().Len())}
	effect := func(r *OwnResource) OwnEffect {
		switch {
		case r == nil:
			return OwnBorrow
		case w.escaped[r]:
			return OwnEscape
		case w.exits > 0 && w.relAtExit[r] == w.exits && r.everReleased:
			return OwnRelease
		}
		return OwnBorrow
	}
	sum.Recv = effect(w.recvRes)
	for i, r := range w.paramRes {
		sum.Params[i] = effect(r)
	}
	sum.Acquires = w.acquires
	sum.AcquireResult = w.acqIdx
	return sum
}

// checkExit accounts one normal function exit: param obligations
// released here feed the summary; fresh resources still live here are
// the leak finding.
func (w *ownWalker) checkExit(s *ownState, at token.Pos) {
	if s.exited {
		return
	}
	w.exits++
	for r, st := range s.res {
		released := st.st == resReleased || st.st == resVoid || (st.st == resLive && st.deferred)
		switch {
		case released:
			w.relAtExit[r]++
		case st.st == resEscaped:
			w.escaped[r] = true
		case r.param == -2 && (st.st == resLive || st.st == resMaybe):
			w.reportLeak(r, st, at)
		}
	}
	s.exited = true
}

// reportLeak buffers a leak; flushLeaks emits it once the whole body
// has been walked. Deciding the message (and whether the mechanical
// `defer` fix applies) needs the final everReleased value — at the time
// an early error return is walked, a release later in the function has
// not been seen yet, and inserting a defer above an explicit release
// would turn the leak into a double release.
func (w *ownWalker) reportLeak(r *OwnResource, st resState, at token.Pos) {
	if w.pass == nil || r.leakReported {
		return
	}
	r.leakReported = true
	w.leaks = append(w.leaks, ownLeak{r: r, maybe: st.st == resMaybe, at: at})
}

func (w *ownWalker) flushLeaks() {
	for _, l := range w.leaks {
		var fixes []SuggestedFix
		if !l.r.everReleased && w.model.FixFor != nil {
			fixes = w.model.FixFor(l.r)
		}
		kind := "is never released"
		if l.maybe || l.r.everReleased {
			kind = "is not released on every path"
		}
		w.pass.Report(l.r.Pos, fmt.Sprintf(
			"%s %s %s: control can leave the function at %s while it is still live; release it on every path or defer the release",
			w.model.What, l.r.name(), kind, w.pos(l.at)), fixes...)
	}
	w.leaks = nil
}

func (w *ownWalker) pos(p token.Pos) string {
	pos := w.pkg.Fset.Position(p)
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// --- statement interpretation ----------------------------------------------

func (w *ownWalker) walkBlock(stmts []ast.Stmt, s *ownState, loopDepth int) *ownState {
	for _, stmt := range stmts {
		s = w.walkStmt(stmt, s, loopDepth)
		if s.exited {
			break
		}
	}
	return s
}

func (w *ownWalker) walkStmt(stmt ast.Stmt, s *ownState, loopDepth int) *ownState {
	switch stmt := stmt.(type) {
	case *ast.ExprStmt:
		w.scanExpr(stmt.X, s)
		if w.terminalCall(stmt.X) {
			s.exited = true
		}
	case *ast.DeferStmt:
		w.applyDefer(stmt, s, loopDepth)
	case *ast.GoStmt:
		w.applyAsync(stmt.Call, s)
	case *ast.SendStmt:
		w.scanExpr(stmt.Chan, s)
		if c := w.scanExpr(stmt.Value, s); c != nil {
			w.escape(c, s)
		}
	case *ast.ReturnStmt:
		for i, e := range stmt.Results {
			if c := w.scanExpr(e, s); c != nil {
				if st := s.res[c]; st.st == resLive || st.st == resMaybe {
					w.escape(c, s)
					if c.param == -2 {
						w.acquires = true
						w.acqIdx = i
					}
				}
			}
		}
		if len(stmt.Results) == 0 {
			for _, obj := range w.namedResults {
				if r := s.bind[obj]; r != nil {
					w.escape(r, s)
					if r.param == -2 {
						w.acquires = true
					}
				}
			}
		}
		w.checkExit(s, stmt.Pos())
		s.exited = true
	case *ast.BranchStmt:
		s.exited = true
	case *ast.AssignStmt:
		w.applyAssign(stmt, s)
	case *ast.DeclStmt:
		w.applyDecl(stmt, s)
	case *ast.IncDecStmt:
		w.scanExpr(stmt.X, s)
	case *ast.LabeledStmt:
		return w.walkStmt(stmt.Stmt, s, loopDepth)
	case *ast.BlockStmt:
		return w.walkBlock(stmt.List, s, loopDepth)
	case *ast.IfStmt:
		if stmt.Init != nil {
			s = w.walkStmt(stmt.Init, s, loopDepth)
		}
		w.scanExpr(stmt.Cond, s)
		thenS, elseS := s.clone(), s.clone()
		if r, onThen := w.errCond(stmt.Cond, s); r != nil {
			voidIn := elseS
			if onThen {
				voidIn = thenS
			}
			if st := voidIn.res[r]; st.st == resLive {
				st.st = resVoid
				voidIn.res[r] = st
			}
		}
		thenS = w.walkBlock(stmt.Body.List, thenS, loopDepth)
		if stmt.Else != nil {
			elseS = w.walkStmt(stmt.Else, elseS, loopDepth)
		}
		return w.merge(thenS, elseS)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkCases(stmt, s, loopDepth)
	case *ast.ForStmt:
		if stmt.Init != nil {
			s = w.walkStmt(stmt.Init, s, loopDepth)
		}
		if stmt.Cond != nil {
			w.scanExpr(stmt.Cond, s)
		}
		bodyEnd := w.walkBlock(stmt.Body.List, s.clone(), loopDepth+1)
		w.checkLoopObligations(s, bodyEnd)
		return s
	case *ast.RangeStmt:
		w.scanExpr(stmt.X, s)
		w.unbindRangeVar(stmt.Key, s)
		w.unbindRangeVar(stmt.Value, s)
		bodyEnd := w.walkBlock(stmt.Body.List, s.clone(), loopDepth+1)
		w.checkLoopObligations(s, bodyEnd)
		return s
	}
	return s
}

// unbindRangeVar drops stale bindings shadowed by a range clause —
// container elements are untracked by the must-alias discipline.
func (w *ownWalker) unbindRangeVar(e ast.Expr, s *ownState) {
	if id := idOf(e); id != nil && id.Name != "_" {
		if obj := w.obj(id); obj != nil {
			delete(s.bind, obj)
		}
	}
}

func (w *ownWalker) walkCases(stmt ast.Stmt, s *ownState, loopDepth int) *ownState {
	var body *ast.BlockStmt
	switch st := stmt.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			s = w.walkStmt(st.Init, s, loopDepth)
		}
		if st.Tag != nil {
			w.scanExpr(st.Tag, s)
		}
		body = st.Body
	case *ast.TypeSwitchStmt:
		body = st.Body
	case *ast.SelectStmt:
		body = st.Body
	}
	var branches []*ownState
	hasDefault := false
	for _, c := range body.List {
		b := s.clone()
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			stmts = c.Body
			hasDefault = hasDefault || c.List == nil
		case *ast.CommClause:
			if c.Comm != nil {
				b = w.walkStmt(c.Comm, b, loopDepth)
			}
			stmts = c.Body
			hasDefault = hasDefault || c.Comm == nil
		}
		branches = append(branches, w.walkBlock(stmts, b, loopDepth))
	}
	if _, isSelect := stmt.(*ast.SelectStmt); !hasDefault && !isSelect {
		branches = append(branches, s.clone())
	}
	if len(branches) == 0 {
		return s
	}
	out := branches[0]
	for _, b := range branches[1:] {
		out = w.merge(out, b)
	}
	return out
}

// merge joins two path states. Exited paths drop out. A resource
// missing on one side keeps the other side's state (it was acquired in
// a branch-local scope); a resource released on one side but live with
// no deferred cover on the other becomes Maybe — reported as a
// conditional leak if it reaches an exit that way.
func (w *ownWalker) merge(a, b *ownState) *ownState {
	switch {
	case a.exited && b.exited:
		out := newOwnState()
		out.exited = true
		return out
	case a.exited:
		return b
	case b.exited:
		return a
	}
	out := newOwnState()
	for obj, r := range a.bind {
		if r2, ok := b.bind[obj]; !ok || r2 == r {
			out.bind[obj] = r
		}
	}
	for obj, r := range b.bind {
		if _, ok := a.bind[obj]; !ok {
			out.bind[obj] = r
		}
	}
	for r, sa := range a.res {
		if sb, ok := b.res[r]; ok {
			out.res[r] = mergeRes(sa, sb)
		} else {
			out.res[r] = sa
		}
	}
	for r, sb := range b.res {
		if _, ok := a.res[r]; !ok {
			out.res[r] = sb
		}
	}
	for obj, r := range a.errLink {
		out.errLink[obj] = r
	}
	for obj, r := range b.errLink {
		out.errLink[obj] = r
	}
	return out
}

func mergeRes(a, b resState) resState {
	// Normalize so a is the "smaller" state; the table below is
	// symmetric.
	if a.st > b.st {
		a, b = b, a
	}
	covered := func(s resState) bool {
		return s.st == resReleased || (s.st == resLive && s.deferred)
	}
	switch {
	case a.st == b.st:
		a.deferred = a.deferred && b.deferred
		if b.st == resReleased && !a.relPos.IsValid() {
			a.relPos = b.relPos
		}
		return a
	case a.st == resVoid || b.st == resVoid:
		// The void arm had nothing to release; the other arm's
		// obligation carries.
		if a.st == resVoid {
			return b
		}
		return a
	case a.st == resEscaped || b.st == resEscaped:
		return resState{st: resEscaped}
	case covered(a) && covered(b):
		// defer on one arm, explicit release on the other: both paths
		// end released.
		rel := a.relPos
		if !rel.IsValid() {
			rel = b.relPos
		}
		return resState{st: resReleased, relPos: rel}
	default:
		// live-uncovered vs released (or maybe): conditional release.
		rel := a.relPos
		if !rel.IsValid() {
			rel = b.relPos
		}
		return resState{st: resMaybe, relPos: rel}
	}
}

// checkLoopObligations compares loop-entry state against body-end
// state: a resource acquired inside the body and still live leaks once
// per iteration; an outer resource released inside the body double-
// releases on the second iteration.
func (w *ownWalker) checkLoopObligations(entry, bodyEnd *ownState) {
	if bodyEnd.exited || w.pass == nil {
		return
	}
	for r, st := range bodyEnd.res {
		_, before := entry.res[r]
		if !before && r.param == -2 && st.st == resLive && !st.deferred {
			if !r.leakReported {
				r.leakReported = true
				w.pass.Reportf(r.Pos,
					"%s %s is acquired each loop iteration but still live at the end of the body; one %s leaks per iteration",
					w.model.What, r.name(), w.model.What)
			}
		}
		if before && st.st == resReleased && entry.res[r].st == resLive && !w.model.AllowDoubleRelease {
			w.pass.Reportf(st.relPos,
				"%s %s is released inside the loop but acquired outside it; the next iteration releases it again",
				w.model.What, r.name())
		}
	}
}

// --- assignments and declarations ------------------------------------------

func (w *ownWalker) applyAssign(stmt *ast.AssignStmt, s *ownState) {
	// Tuple form `a, b, err := call()`: one call, many results.
	if len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 {
		if call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr); ok {
			c := w.scanCall(call, s)
			for i, lhs := range stmt.Lhs {
				if i == c.idx && c.r != nil {
					w.bindTo(lhs, c.r, stmt, s)
				} else {
					w.bindTo(lhs, nil, stmt, s)
				}
			}
			if c.r != nil {
				w.linkError(stmt.Lhs, c.r, s)
			}
			return
		}
	}
	for i, rhs := range stmt.Rhs {
		r := w.scanExpr(rhs, s)
		if i < len(stmt.Lhs) {
			w.bindTo(stmt.Lhs[i], r, stmt, s)
		}
	}
}

func (w *ownWalker) applyDecl(stmt *ast.DeclStmt, s *ownState) {
	gd, ok := stmt.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
				c := w.scanCall(call, s)
				for i, name := range vs.Names {
					var r *OwnResource
					if i == c.idx {
						r = c.r
					}
					w.bindTo(name, r, stmt, s)
				}
				continue
			}
		}
		for i, v := range vs.Values {
			r := w.scanExpr(v, s)
			if i < len(vs.Names) {
				w.bindTo(vs.Names[i], r, stmt, s)
			}
		}
	}
}

// bindTo routes a carried resource into an assignment target: an
// identifier binds (must-alias), any other storable target is an
// ownership transfer out of the function's view (escape).
func (w *ownWalker) bindTo(lhs ast.Expr, r *OwnResource, stmt ast.Stmt, s *ownState) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return // value dropped; the obligation stays unbound and leaks
		}
		obj := w.obj(id)
		if obj == nil {
			return
		}
		if r != nil {
			s.bind[obj] = r
			if st, ok := s.res[r]; ok && st.st == resLive && r.param == -2 && r.BindName == "" {
				r.BindName = id.Name
				r.AcquireEnd = stmt.End()
			}
		} else {
			delete(s.bind, obj)
		}
		return
	}
	// Field, element or pointee store: the resource now lives in a
	// structure whose lifetime the walker does not track.
	w.scanExpr(lhs, s)
	if r != nil {
		w.escape(r, s)
	}
}

// linkError pairs an error result with the resource acquired in the
// same tuple, arming the err != nil void transition.
func (w *ownWalker) linkError(lhs []ast.Expr, r *OwnResource, s *ownState) {
	for _, e := range lhs {
		id := idOf(e)
		if id == nil || id.Name == "_" {
			continue
		}
		obj := w.obj(id)
		if obj != nil && IsErrorType(obj.Type()) {
			s.errLink[obj] = r
		}
	}
}

// errCond recognizes `err != nil` / `err == nil` over a linked error
// variable; onThen reports which arm is the failure arm.
func (w *ownWalker) errCond(cond ast.Expr, s *ownState) (r *OwnResource, onThen bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(y) {
		// err OP nil
	} else if isNilIdent(x) {
		x = y
	} else {
		return nil, false
	}
	id := idOf(x)
	if id == nil {
		return nil, false
	}
	obj := w.obj(id)
	if obj == nil {
		return nil, false
	}
	return s.errLink[obj], be.Op == token.NEQ
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// --- defer / go ------------------------------------------------------------

// applyDefer handles a deferred call: a deferred release covers every
// later exit of this path (but inside a loop it runs at function exit,
// not per iteration — the locksafe rule transposed to resources).
func (w *ownWalker) applyDefer(stmt *ast.DeferStmt, s *ownState, loopDepth int) {
	for _, r := range w.callReleases(stmt.Call, s) {
		if loopDepth > 0 && w.pass != nil {
			w.pass.Reportf(stmt.Pos(),
				"deferred release of %s %s inside a loop runs at function exit, not per iteration; every earlier iteration's %s leaks",
				w.model.What, r.name(), w.model.What)
		}
		if st, ok := s.res[r]; ok && (st.st == resLive || st.st == resMaybe) {
			st.deferred = true
			s.res[r] = st
			r.everReleased = true
		}
	}
	if lit, ok := ast.Unparen(stmt.Call.Fun).(*ast.FuncLit); ok {
		w.walkLit(lit)
	} else {
		for _, a := range stmt.Call.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				w.walkLit(lit)
			}
		}
	}
}

// applyAsync handles `go call(...)`: any tracked resource handed to the
// goroutine escapes this function's path-wise view (the release, if
// any, happens on the goroutine's own timeline).
func (w *ownWalker) applyAsync(call *ast.CallExpr, s *ownState) {
	for _, a := range call.Args {
		if r := w.scanExpr(a, s); r != nil {
			w.escape(r, s)
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, r := range w.litReleases(lit, s) {
			w.escape(r, s)
		}
		w.walkLit(lit)
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.scanExpr(sel.X, s)
	}
}

// callReleases resolves which currently-bound resources a call would
// release: the model primitive, a callee summary release, or — for a
// function literal — a primitive release of a captured binding.
func (w *ownWalker) callReleases(call *ast.CallExpr, s *ownState) []*OwnResource {
	info := w.pkg.Info
	if op, ok := w.model.Release(info, call); ok {
		var target *OwnResource
		if op == -1 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				target = w.resourceOf(sel.X, s)
			}
		} else if op < len(call.Args) {
			target = w.resourceOf(call.Args[op], s)
		}
		if target != nil {
			return []*OwnResource{target}
		}
		return nil
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return w.litReleases(lit, s)
	}
	if fn := CalleeFunc(info, call); fn != nil {
		if sum, ok := w.summaryOf(fn); ok {
			var out []*OwnResource
			if sum.Recv == OwnRelease {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if r := w.resourceOf(sel.X, s); r != nil {
						out = append(out, r)
					}
				}
			}
			for i, a := range call.Args {
				if i < len(sum.Params) && sum.Params[i] == OwnRelease {
					if r := w.resourceOf(a, s); r != nil {
						out = append(out, r)
					}
				}
			}
			return out
		}
	}
	return nil
}

// litReleases scans a function literal's body for primitive releases of
// bindings captured from the enclosing scope.
func (w *ownWalker) litReleases(lit *ast.FuncLit, s *ownState) []*OwnResource {
	var out []*OwnResource
	seen := map[*OwnResource]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := w.model.Release(w.pkg.Info, call)
		if !ok {
			return true
		}
		var target *OwnResource
		if op == -1 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				target = w.resourceOf(sel.X, s)
			}
		} else if op < len(call.Args) {
			target = w.resourceOf(call.Args[op], s)
		}
		if target != nil && !seen[target] {
			seen[target] = true
			out = append(out, target)
		}
		return true
	})
	return out
}

// walkLit analyzes a function literal body as its own scope: resources
// acquired inside it carry their own obligations. Captured outer
// bindings are invisible here (their handoff is handled at the capture
// site), so releases of them are leniently ignored.
func (w *ownWalker) walkLit(lit *ast.FuncLit) {
	sub := &ownWalker{
		pkg:       w.pkg,
		model:     w.model,
		pass:      w.pass,
		summaryOf: w.summaryOf,
		relAtExit: map[*OwnResource]int{},
		escaped:   map[*OwnResource]bool{},
	}
	end := sub.walkBlock(lit.Body.List, newOwnState(), 0)
	sub.checkExit(end, lit.Body.End())
}

// --- expression scanning ---------------------------------------------------

// scanExpr interprets one expression in evaluation order: applies call
// effects, flags uses of released bindings, and returns the resource
// the expression's value carries (nil for untracked values).
func (w *ownWalker) scanExpr(e ast.Expr, s *ownState) *OwnResource {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		obj := w.obj(e)
		if obj == nil {
			return nil
		}
		r := s.bind[obj]
		if r != nil {
			if st, ok := s.res[r]; ok && st.st == resReleased && w.pass != nil && !r.useReported {
				r.useReported = true
				w.pass.Reportf(e.Pos(), "%s %s used after it was released at %s",
					w.model.What, r.name(), w.pos(st.relPos))
			}
		}
		return r
	case *ast.ParenExpr:
		return w.scanExpr(e.X, s)
	case *ast.StarExpr:
		return w.scanExpr(e.X, s)
	case *ast.UnaryExpr:
		return w.scanExpr(e.X, s)
	case *ast.BinaryExpr:
		w.scanExpr(e.X, s)
		w.scanExpr(e.Y, s)
		return nil
	case *ast.SelectorExpr:
		if _, isPkg := w.pkg.Info.Uses[idOf(e.X)].(*types.PkgName); isPkg {
			return nil
		}
		w.scanExpr(e.X, s)
		return nil
	case *ast.IndexExpr:
		w.scanExpr(e.X, s)
		w.scanExpr(e.Index, s)
		return nil
	case *ast.SliceExpr:
		w.scanExpr(e.X, s)
		return nil
	case *ast.TypeAssertExpr:
		return w.scanExpr(e.X, s)
	case *ast.CompositeLit:
		var carriedRes *OwnResource
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if r := w.scanExpr(elt, s); r != nil && carriedRes == nil {
				if st, ok := s.res[r]; ok && (st.st == resLive || st.st == resMaybe) {
					carriedRes = r
				}
			}
		}
		// Ownership transfer: the composite now carries the resource;
		// binding the composite re-binds the obligation (the
		// `tf := &TraceFile{closer: closer}` pattern).
		return carriedRes
	case *ast.FuncLit:
		for _, r := range w.litReleases(e, s) {
			w.escape(r, s)
		}
		w.walkLit(e)
		return nil
	case *ast.CallExpr:
		return w.scanCall(e, s).r
	}
	return nil
}

// scanCall interprets one call site: conversions pass the operand
// through, the model primitives acquire/release, and everything else
// applies the callee's summary (or Borrow when there is none).
func (w *ownWalker) scanCall(call *ast.CallExpr, s *ownState) carried {
	info := w.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return carried{r: w.scanExpr(call.Args[0], s)}
	}
	// The release primitive is classified before the receiver is
	// scanned as a use: `tf.Close()` on an already-closed handle is the
	// double-release rule's business (idempotent under
	// AllowDoubleRelease), not a use-after-release.
	if op, ok := w.model.Release(info, call); ok {
		var target *OwnResource
		switch {
		case op == -1:
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				target = w.resourceOf(sel.X, s)
				if target == nil {
					w.scanExpr(sel.X, s)
				}
			}
		case op < len(call.Args):
			target = w.resourceOf(call.Args[op], s)
			if target == nil {
				w.scanExpr(call.Args[op], s)
			}
		}
		for i, a := range call.Args {
			if i != op {
				w.scanExpr(a, s)
			}
		}
		w.applyRelease(target, call.Pos(), s)
		return carried{}
	}

	var recvRes *OwnResource
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isPkg := info.Uses[idOf(sel.X)].(*types.PkgName); !isPkg {
			recvRes = w.scanExpr(sel.X, s)
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, r := range w.litReleases(lit, s) {
			w.escape(r, s)
		}
		w.walkLit(lit)
	}

	argRes := make([]*OwnResource, len(call.Args))
	for i, a := range call.Args {
		argRes[i] = w.scanExpr(a, s)
	}

	// append stores its arguments into a slice: a tracked resource
	// appended anywhere has been handed off to that container, exactly
	// like a field or index store.
	if id := idOf(call.Fun); id != nil && id.Name == "append" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			for _, r := range argRes {
				w.escape(r, s)
			}
		}
	}

	if w.model.Acquire != nil {
		if idx, ok := w.model.Acquire(info, call); ok {
			return carried{r: w.newResource(call, s), idx: idx}
		}
	}

	if fn := CalleeFunc(info, call); fn != nil {
		if sum, ok := w.summaryOf(fn); ok {
			if recvRes != nil {
				w.applyEffect(recvRes, sum.Recv, call.Pos(), s)
			}
			for i, r := range argRes {
				if r != nil && i < len(sum.Params) {
					w.applyEffect(r, sum.Params[i], call.Pos(), s)
				}
			}
			if sum.Acquires {
				return carried{r: w.newResource(call, s), idx: sum.AcquireResult}
			}
		}
	}
	return carried{}
}

func (w *ownWalker) applyEffect(r *OwnResource, eff OwnEffect, pos token.Pos, s *ownState) {
	switch eff {
	case OwnRelease:
		w.applyRelease(r, pos, s)
	case OwnEscape:
		w.escape(r, s)
	case OwnBorrow:
		// Borrowed: the obligation stays with the caller untouched.
	}
}

// applyRelease transitions a resource to released; releasing an
// untracked value (nil target) is a handoff the walker stays quiet
// about on purpose.
func (w *ownWalker) applyRelease(r *OwnResource, pos token.Pos, s *ownState) {
	if r == nil {
		return
	}
	st, ok := s.res[r]
	if !ok {
		return
	}
	switch st.st {
	case resVoid, resEscaped:
		return
	case resReleased:
		if !w.model.AllowDoubleRelease && w.pass != nil {
			w.pass.Reportf(pos, "%s %s released again; it was already released at %s",
				w.model.What, r.name(), w.pos(st.relPos))
		}
		return
	case resLive:
		if st.deferred && !w.model.AllowDoubleRelease && w.pass != nil {
			w.pass.Reportf(pos, "%s %s released here and again by the deferred release; the defer double-releases it",
				w.model.What, r.name())
		}
	}
	st.st = resReleased
	st.relPos = pos
	s.res[r] = st
	r.everReleased = true
}

func (w *ownWalker) escape(r *OwnResource, s *ownState) {
	if r == nil {
		return
	}
	if st, ok := s.res[r]; ok && st.st != resVoid {
		st.st = resEscaped
		s.res[r] = st
		w.escaped[r] = true
	}
}

func (w *ownWalker) newResource(call *ast.CallExpr, s *ownState) *OwnResource {
	r := &OwnResource{Pos: call.Pos(), Desc: callText(call), param: -2}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		r.RecvPath = exprPath(sel.X)
	}
	s.res[r] = resState{st: resLive}
	return r
}

func (w *ownWalker) resourceOf(e ast.Expr, s *ownState) *OwnResource {
	if id := idOf(e); id != nil {
		if obj := w.obj(id); obj != nil {
			return s.bind[obj]
		}
	}
	return nil
}

func (w *ownWalker) obj(id *ast.Ident) types.Object {
	info := w.pkg.Info
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// terminalCall recognizes calls that never return (panic, os.Exit,
// log.Fatal*, runtime.Goexit); paths ending there carry no release
// obligation.
func (w *ownWalker) terminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	fn := CalleeFunc(w.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() + "." + fn.Name() {
	case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
		return true
	}
	return false
}

// callText renders a call's function expression for messages ("p.Get").
func callText(call *ast.CallExpr) string {
	if s := exprPath(call.Fun); s != "" {
		return s
	}
	return "the call"
}

// exprPath renders a stable textual path for ident/selector/star
// chains; anything else yields "".
func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprPath(e.X)
	}
	return ""
}
