// The protoorder analyzer: the wire protocol as an explicit typestate
// machine. Every frame the runtime emits goes through one of four sinks —
// (*conn).send, (*registry).send, codec.WriteFrame, or the priced
// codec.FrameBytes — and the frame kinds are constants, so the emission
// order along each stream is statically checkable: protoMachine below pins
// which kind may follow which, the static twin of the dynamic check in
// the TestSimWire parity tests. Per function in scope, each stream value (the
// send receiver, the WriteFrame writer, or a per-function pricing sentinel
// for FrameBytes) carries the set of kinds it may last have emitted,
// propagated forward over the CFG; an emission whose kind is illegal from
// some reachable state is a finding. Free-function summaries lift emissions
// and envelope forwards across calls (sendShutdownLogged emits a shutdown on
// its parameter; checkpoint.writeRecord forwards its envelope parameter), so
// serveConn's sends check inside RunWorker's session loop. Two global checks
// ride on the call graph: durable record kinds (snapshot, round-close) may
// only be emitted by the durability packages, and a function reachable from
// exactly one protocol role root (transport.Serve = the PS, transport.
// RunWorker = the worker) may only emit that role's kinds.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

const protoorderOKDirective = "//fedmp:protoorder-ok"

const protoorderHint = "emit frames in protocol order (see protoMachine in internal/lint/protoorder.go " +
	"and DESIGN.md §7.3), or suppress a deliberate exception with " + protoorderOKDirective

var analyzerProtoOrder = &Analyzer{
	Name: "protoorder",
	Doc: "wire frames must be emitted in protocol-machine order per stream: " +
		"every (*conn).send / (*registry).send / codec.WriteFrame / priced " +
		"codec.FrameBytes site is checked against the pinned kind-transition " +
		"table, durable record kinds may only be written by the durability " +
		"packages, and functions reachable from exactly one protocol role root " +
		"(Serve, RunWorker) stay inside that role's kind set. " +
		protoorderOKDirective + " on the preceding or same line suppresses.",
	Run: runProtoOrder,
}

// Protocol states: protoStart is the fresh-stream state, the rest mirror
// codec.Kind* value for value (pinned by TestProtoKindValuesMatchCodec).
const (
	protoStart byte = iota
	protoHello
	protoAssign
	protoResult
	protoShutdown
	protoPing
	protoPong
	protoSnapshot
	protoRoundClose

	protoKindMax = protoRoundClose
)

var protoKindName = map[byte]string{
	protoStart:      "start",
	protoHello:      "hello",
	protoAssign:     "assign",
	protoResult:     "result",
	protoShutdown:   "shutdown",
	protoPing:       "ping",
	protoPong:       "pong",
	protoSnapshot:   "snapshot",
	protoRoundClose: "round-close",
}

// protoMachine pins the wire protocol: protoMachine[s] lists the kinds that
// may be emitted on a stream whose last emission was s. A fresh stream
// (protoStart) may open with anything — which end of the conversation a
// function holds is the role check's job — and every session kind may be
// followed by shutdown. Deleting a transition here fails
// TestProtoOrderMachinePin and re-lints the repo against the tighter
// machine.
var protoMachine = map[byte][]byte{
	protoStart:      {protoHello, protoAssign, protoResult, protoPing, protoPong, protoShutdown, protoSnapshot, protoRoundClose},
	protoHello:      {protoResult, protoPong, protoShutdown},
	protoAssign:     {protoAssign, protoResult, protoPing, protoShutdown},
	protoResult:     {protoResult, protoPong, protoShutdown},
	protoPing:       {protoPing, protoAssign, protoShutdown},
	protoPong:       {protoPong, protoResult, protoShutdown},
	protoSnapshot:   {protoSnapshot, protoRoundClose},
	protoRoundClose: {protoRoundClose, protoSnapshot},
	protoShutdown:   {},
}

// protoDurable marks the on-disk record kinds: they never cross the wire, so
// only the durability packages (path suffix /codec or /checkpoint) may emit
// them, and the role check exempts them (checkpointing is driven from the PS
// round loop by design).
var protoDurable = map[byte]bool{
	protoSnapshot:   true,
	protoRoundClose: true,
}

func runProtoOrder(pass *Pass) {
	if !inScope(pass.Pkg.Path, pass.Opts.ProtoOrderScope) {
		return
	}
	ps := pass.protoOrder()
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ok := pass.directiveLines(f, protoorderOKDirective)
		for _, decl := range f.Decls {
			fd, ok2 := decl.(*ast.FuncDecl)
			if !ok2 || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			role := ps.role[funcKey(fn)]
			pf := &protoFunc{pass: pass, info: info, ps: ps, ok: ok, role: role}
			// The declaration body and each nested literal analyze as
			// separate flows, all under the declaration's protocol role.
			eachBody(fd, info, func(sig *types.Signature, body *ast.BlockStmt) {
				pf.vf = pass.ValueFlow(body, sig)
				pf.priced = types.NewVar(token.NoPos, nil, "<priced>", types.Typ[types.Invalid])
				pf.run(body)
			})
		}
	}
}

// eachBody yields the declaration body and every nested literal body with
// its signature.
func eachBody(fd *ast.FuncDecl, info *types.Info, fn func(*types.Signature, *ast.BlockStmt)) {
	sig, _ := info.Defs[fd.Name].Type().(*types.Signature)
	fn(sig, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lsig, _ := info.TypeOf(lit).(*types.Signature)
			fn(lsig, lit.Body)
		}
		return true
	})
}

// protoFact maps each tracked stream class to the set of protocol states it
// may be in: bit 0 is protoStart, bit k is "last emission was kind k".
type protoFact map[*types.Var]uint16

const protoStartBit uint16 = 1

// protoAllStates is every state at once — the demotion value for streams
// that pass through calls whose emissions the summaries cannot see.
const protoAllStates uint16 = 1<<(protoKindMax+1) - 1

func protoKindBit(k byte) uint16 { return 1 << k }

// protoFunc analyzes one function body against the machine.
type protoFunc struct {
	pass *Pass
	info *types.Info
	ps   *protoState
	vf   *ValueFlow
	ok   map[int]bool
	// role is the emittable kind set when the function is reachable from
	// exactly one protocol role root; nil means unrestricted.
	role []byte
	// priced is the per-body sentinel stream threading state across
	// codec.FrameBytes pricing calls.
	priced *types.Var
}

func (pf *protoFunc) run(body *ast.BlockStmt) {
	g := BuildCFG(body, pf.info)
	before, _ := Solve(g, Problem[protoFact]{
		Dir:      Forward,
		Bottom:   func() protoFact { return protoFact{} },
		Boundary: func() protoFact { return protoFact{} },
		Merge: func(dst, src protoFact) protoFact {
			for k, v := range src {
				dst[k] |= v
			}
			return dst
		},
		Transfer: func(b *Block, in protoFact) protoFact {
			out := make(protoFact, len(in))
			for k, v := range in {
				out[k] = v
			}
			for _, n := range b.Nodes {
				pf.step(n, out, nil)
			}
			return out
		},
		Equal: func(a, b protoFact) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if b[k] != v {
					return false
				}
			}
			return true
		},
	})
	for _, b := range g.Blocks {
		fact := make(protoFact, len(before[b]))
		for k, v := range before[b] {
			fact[k] = v
		}
		for _, n := range b.Nodes {
			pf.step(n, fact, pf.report)
		}
	}
}

func (pf *protoFunc) report(pos token.Pos, format string, args ...any) {
	if suppressed(pf.pass.Pkg.Fset, pf.ok, pos) {
		return
	}
	pf.pass.ReportHint(pos, protoorderHint, format, args...)
}

// streamClass resolves a stream expression to a trackable class, or nil for
// fresh-per-site streams (field selectors, untrackable aliases).
func (pf *protoFunc) streamClass(e ast.Expr) *types.Var {
	rep := pf.vf.ClassOf(e)
	if rep == nil {
		return nil
	}
	if pf.vf.Flags(rep)&(VFCaptured|VFAddrTaken) != 0 {
		return nil
	}
	if pf.vf.ClassSize(rep) > 1 && pf.vf.Assigns(rep) > 1 {
		return nil
	}
	return rep
}

func (pf *protoFunc) states(fact protoFact, rep *types.Var) uint16 {
	if rep == nil {
		return protoStartBit
	}
	if s, ok := fact[rep]; ok {
		return s
	}
	return protoStartBit
}

// step applies one CFG node's emissions to fact, reporting when report is
// non-nil (the post-fixpoint replay).
func (pf *protoFunc) step(n ast.Node, fact protoFact, report func(token.Pos, string, ...any)) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own flow
		case *ast.AssignStmt:
			pf.stepAssign(c, fact)
		case *ast.CallExpr:
			if sink := protoSinkOf(pf.info, c); sink != nil {
				pf.stepSink(c, sink, fact, report)
				return true
			}
			pf.stepCall(c, fact, report)
		}
		return true
	})
}

// stepAssign resets a reassigned stream class to the fresh state: a new
// generation (dial result, fresh conn) starts its own conversation. Alias
// copies within a class keep the state.
func (pf *protoFunc) stepAssign(s *ast.AssignStmt, fact protoFact) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		return
	}
	for i, lhs := range s.Lhs {
		rep := pf.streamClass(lhs)
		if rep == nil {
			continue
		}
		if len(s.Lhs) == len(s.Rhs) {
			if rhsRep := pf.streamClass(s.Rhs[i]); rhsRep == rep {
				continue
			}
		}
		fact[rep] = protoStartBit
	}
}

// stepSink checks one direct emission site and advances the stream state.
func (pf *protoFunc) stepSink(call *ast.CallExpr, sink *protoSink, fact protoFact, report func(token.Pos, string, ...any)) {
	var rep *types.Var
	if sink.priced {
		rep = pf.priced
	} else {
		rep = pf.streamClass(sink.stream)
	}
	kinds := pf.envelopeKinds(sink.env)
	if kinds == nil {
		// Unknown envelope (a parameter, a decoded frame): nothing to check,
		// and any subsequent state claim about the stream would be a guess.
		if rep != nil {
			fact[rep] = protoAllStates
		}
		return
	}
	pf.emit(call.Pos(), rep, kinds, fact, sink.priced, report)
}

// emit checks kinds against the stream's reachable states, the durability
// packages and the function's role, then replaces the stream state with the
// emitted kind set.
func (pf *protoFunc) emit(pos token.Pos, rep *types.Var, kinds []byte, fact protoFact, priced bool, report func(token.Pos, string, ...any)) {
	states := pf.states(fact, rep)
	var next uint16
	for _, k := range kinds {
		if report != nil {
			if bad := illegalFrom(states, k); len(bad) > 0 {
				report(pos, "%s frame may follow %s on this stream, which the protocol machine forbids",
					protoKindName[k], stateList(bad))
			}
			pf.checkDurability(pos, k, report)
			pf.checkRole(pos, k, priced, report)
		}
		next |= protoKindBit(k)
	}
	if rep != nil {
		fact[rep] = next
	}
}

// illegalFrom lists the reachable states from which kind k may not be
// emitted.
func illegalFrom(states uint16, k byte) []byte {
	var bad []byte
	for s := byte(0); s <= protoKindMax; s++ {
		if states&protoKindBit(s) == 0 {
			continue
		}
		legal := false
		for _, t := range protoMachine[s] {
			if t == k {
				legal = true
				break
			}
		}
		if !legal {
			bad = append(bad, s)
		}
	}
	return bad
}

func stateList(states []byte) string {
	names := make([]string, len(states))
	for i, s := range states {
		names[i] = protoKindName[s]
	}
	return strings.Join(names, "/")
}

func (pf *protoFunc) checkDurability(pos token.Pos, k byte, report func(token.Pos, string, ...any)) {
	if !protoDurable[k] || isDurabilityPkg(pf.pass.Pkg.Path) {
		return
	}
	report(pos, "%s is an on-disk durability record kind; only the codec and checkpoint packages may emit it",
		protoKindName[k])
}

func (pf *protoFunc) checkRole(pos token.Pos, k byte, priced bool, report func(token.Pos, string, ...any)) {
	// Priced sinks simulate both ends of the conversation; durable kinds are
	// the durability check's business.
	if pf.role == nil || priced || protoDurable[k] {
		return
	}
	for _, a := range pf.role {
		if a == k {
			return
		}
	}
	report(pos, "%s frame emitted on a path reachable only from the %s role, whose kind set is %s",
		protoKindName[k], pf.roleRoot(), stateList(pf.role))
}

func (pf *protoFunc) roleRoot() string {
	if r, ok := pf.ps.roleRoot[stateList(pf.role)]; ok {
		return r
	}
	return "restricted"
}

// isDurabilityPkg reports whether the import path is a durability package:
// the codec (frame format owner) or the checkpoint layer.
func isDurabilityPkg(path string) bool {
	path = normPath(path)
	return strings.HasSuffix(path, "/codec") || strings.HasSuffix(path, "/checkpoint")
}

// stepCall applies callee summaries at an ordinary call site: lifted
// emissions and envelope forwards check against the caller's stream states,
// and streams passed into calls whose emissions the summaries cannot see
// are demoted to every-state.
func (pf *protoFunc) stepCall(call *ast.CallExpr, fact protoFact, report func(token.Pos, string, ...any)) {
	g, _ := pf.pass.Interprocedural()
	targets := g.resolveCall(pf.pass.Pkg, call)
	summarized := false
	touches := false
	for _, t := range targets {
		if sum := pf.ps.sums[t.node]; sum != nil {
			summarized = true
			pf.applySummary(call, sum, fact, report)
		} else if pf.ps.touches[t.node] {
			touches = true
		}
	}
	if summarized {
		return
	}
	if len(targets) > 0 && !touches {
		return // module methods that provably emit nothing
	}
	// Unknown or frame-touching callee: any stream it can reach may have
	// advanced arbitrarily.
	for _, rep := range pf.callStreams(call) {
		if _, tracked := fact[rep]; tracked {
			fact[rep] = protoAllStates
		}
	}
}

// callStreams lists the tracked classes a call can reach: its arguments and
// a method receiver.
func (pf *protoFunc) callStreams(call *ast.CallExpr) []*types.Var {
	var out []*types.Var
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && pf.info.Selections[sel] != nil {
		if rep := pf.streamClass(sel.X); rep != nil {
			out = append(out, rep)
		}
	}
	for _, a := range call.Args {
		if rep := pf.streamClass(a); rep != nil {
			out = append(out, rep)
		}
	}
	return out
}

// applySummary folds one free callee's lifted emissions into the caller's
// stream states. Emission order inside the callee is unknown, so the check
// runs to closure: a kind is a finding only when no reachable state (initial
// or produced by the callee's other emissions) allows it.
func (pf *protoFunc) applySummary(call *ast.CallExpr, sum *protoSummary, fact protoFact, report func(token.Pos, string, ...any)) {
	type lifted struct {
		rep   *types.Var // nil: fresh stream inside the callee
		kinds []byte
	}
	var emissions []lifted
	for _, e := range sum.emits {
		emissions = append(emissions, lifted{pf.streamClass(argAt(call, e.param)), e.kinds})
	}
	for _, f := range sum.forwards {
		env := argAt(call, f.env)
		if env == nil {
			continue
		}
		kinds := pf.envelopeKinds(env)
		var rep *types.Var
		if f.conn >= 0 {
			rep = pf.streamClass(argAt(call, f.conn))
		}
		if kinds == nil {
			if rep != nil {
				fact[rep] = protoAllStates
			}
			continue
		}
		emissions = append(emissions, lifted{rep, kinds})
	}
	for _, e := range emissions {
		states := pf.states(fact, e.rep)
		closure := states
		for changed := true; changed; {
			changed = false
			for _, k := range e.kinds {
				bit := protoKindBit(k)
				if closure&bit != 0 {
					continue
				}
				if len(illegalFrom(closure, k)) < countStates(closure) {
					closure |= bit
					changed = true
				}
			}
		}
		for _, k := range e.kinds {
			if report != nil {
				if closure&protoKindBit(k) == 0 {
					report(call.Pos(), "callee may emit a %s frame, which the protocol machine forbids from %s",
						protoKindName[k], stateBitList(states))
				}
				pf.checkDurability(call.Pos(), k, report)
				pf.checkRole(call.Pos(), k, false, report)
			}
		}
		if e.rep != nil {
			fact[e.rep] = states | closure | kindBits(e.kinds)
		}
	}
}

func countStates(bits uint16) int {
	n := 0
	for s := byte(0); s <= protoKindMax; s++ {
		if bits&protoKindBit(s) != 0 {
			n++
		}
	}
	return n
}

func stateBitList(bits uint16) string {
	var names []string
	for s := byte(0); s <= protoKindMax; s++ {
		if bits&protoKindBit(s) != 0 {
			names = append(names, protoKindName[s])
		}
	}
	return strings.Join(names, "/")
}

func kindBits(kinds []byte) uint16 {
	var bits uint16
	for _, k := range kinds {
		bits |= protoKindBit(k)
	}
	return bits
}

// argAt returns the argument expression at index i, or nil when the call
// does not have one (variadic mismatch, summary built against another
// universe's signature).
func argAt(call *ast.CallExpr, i int) ast.Expr {
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	return call.Args[i]
}

// ---- sinks and envelope kinds ----

// protoSink is one frame-emission site.
type protoSink struct {
	// stream is the value the frame goes out on (the send receiver, the
	// WriteFrame writer); nil for priced sinks.
	stream ast.Expr
	// env is the envelope expression.
	env ast.Expr
	// priced marks codec.FrameBytes — the size model, which emits nothing
	// but must still walk legal sequences (core.runWorker prices the exact
	// frames the runtime would send).
	priced bool
}

// protoSinkOf recognises the four emission sinks.
func protoSinkOf(info *types.Info, call *ast.CallExpr) *protoSink {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
		if sel.Sel.Name == "send" || sel.Sel.Name == "Send" {
			for _, a := range call.Args {
				if isEnvelopePtr(info.TypeOf(a)) {
					return &protoSink{stream: sel.X, env: a}
				}
			}
		}
		return nil
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(normPath(fn.Pkg().Path()), "codec") {
		return nil
	}
	switch fn.Name() {
	case "WriteFrame":
		if len(call.Args) == 2 && isEnvelopePtr(info.TypeOf(call.Args[1])) {
			return &protoSink{stream: call.Args[0], env: call.Args[1]}
		}
	case "FrameBytes":
		if len(call.Args) == 1 && isEnvelopePtr(info.TypeOf(call.Args[0])) {
			return &protoSink{env: call.Args[0], priced: true}
		}
	}
	return nil
}

// calleeFunc resolves a call's static callee object (qualified or local).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isEnvelopePtr reports whether t is *codec.Envelope (through any alias).
func isEnvelopePtr(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok || named.Obj().Name() != "Envelope" || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(normPath(named.Obj().Pkg().Path()), "codec")
}

// envelopeKinds extracts the kind set an envelope expression may carry: a
// composite literal (possibly behind &) yields its Kind field, an identifier
// yields the union over its class's composite origins. nil means unknown.
func (pf *protoFunc) envelopeKinds(env ast.Expr) []byte {
	env = ast.Unparen(env)
	if lit := compositeOf(env); lit != nil {
		if k, ok := litKind(pf.info, lit); ok {
			return []byte{k}
		}
		return nil
	}
	rep := pf.vf.ClassOf(env)
	if rep == nil {
		return nil
	}
	origins := pf.vf.Origins(rep)
	if len(origins) == 0 {
		return nil
	}
	var kinds []byte
	for _, o := range origins {
		lit, ok := o.Expr.(*ast.CompositeLit)
		if o.Kind != OriginComposite || !ok {
			return nil
		}
		k, ok := litKind(pf.info, lit)
		if !ok {
			return nil
		}
		kinds = append(kinds, k)
	}
	return dedupKinds(kinds)
}

func dedupKinds(kinds []byte) []byte {
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	out := kinds[:0]
	for i, k := range kinds {
		if i == 0 || kinds[i-1] != k {
			out = append(out, k)
		}
	}
	return out
}

// compositeOf unwraps a composite literal, possibly behind &.
func compositeOf(e ast.Expr) *ast.CompositeLit {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	lit, _ := e.(*ast.CompositeLit)
	return lit
}

// litKind extracts the constant Kind of an envelope literal: the Kind-keyed
// element, or the first positional one.
func litKind(info *types.Info, lit *ast.CompositeLit) (byte, bool) {
	var expr ast.Expr
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Kind" {
				expr = kv.Value
				break
			}
			continue
		}
		if i == 0 {
			expr = el
		}
	}
	if expr == nil {
		return 0, false
	}
	v, ok := constantInt64(info.Types[expr])
	if !ok || v < 1 || int64(protoKindMax) < v {
		return 0, false
	}
	return byte(v), true
}

// ---- run-wide state: summaries, touch bits, roles ----

// protoEmit is one lifted emission: the callee emits kinds on its param'th
// parameter stream.
type protoEmit struct {
	param int
	kinds []byte
}

// protoForward marks a callee that sends its env'th parameter envelope on
// its conn'th parameter stream (conn -1: a stream internal to the callee).
type protoForward struct {
	env, conn int
}

// protoSummary is one free function's frame behaviour as its callers see it.
type protoSummary struct {
	emits    []protoEmit
	forwards []protoForward
}

// protoState is the run-wide protoorder state, built once per lint run.
type protoState struct {
	// sums maps free-function nodes to their summaries.
	sums map[*FuncNode]*protoSummary
	// touches marks nodes whose call tree contains any emission sink —
	// methods too, so callers know when to demote a stream they hand over.
	touches map[*FuncNode]bool
	// role maps funcKeys reachable from exactly one protocol role root to
	// that root's kind set; roleRoot renders the root name for messages.
	role     map[string][]byte
	roleRoot map[string]string
}

// protoOrder returns the run-wide protoorder state, building it on first
// use.
func (p *Pass) protoOrder() *protoState {
	st := p.ensureInter()
	if st.proto == nil {
		g, _ := p.Interprocedural()
		st.proto = buildProtoState(g, st)
	}
	return st.proto
}

// buildProtoState computes summaries bottom-up over the callee-first SCCs
// and resolves role reachability from the configured roots.
func buildProtoState(g *CallGraph, st *interState) *protoState {
	ps := &protoState{
		sums:     make(map[*FuncNode]*protoSummary),
		touches:  make(map[*FuncNode]bool),
		role:     make(map[string][]byte),
		roleRoot: make(map[string]string),
	}
	for _, scc := range g.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if summarizeProtoNode(g, st, ps, n) {
					changed = true
				}
			}
		}
	}
	ps.resolveRoles(g, st.opts)
	return ps
}

// summarizeProtoNode recomputes one node's summary and touch bit, reporting
// whether either grew (the SCC fixpoint condition).
func summarizeProtoNode(g *CallGraph, st *interState, ps *protoState, n *FuncNode) bool {
	if n.Decl.Body == nil {
		return false
	}
	info := n.Pkg.Info
	sig, _ := n.Fn.Type().(*types.Signature)
	isFree := sig != nil && sig.Recv() == nil
	var sum *protoSummary
	if isFree {
		sum = &protoSummary{}
	}
	touches := false
	vf := st.valueFlow(n.Pkg, n.Decl.Body, sig)
	paramIndex := func(e ast.Expr) int {
		if e == nil || sig == nil {
			return -1
		}
		rep := vf.ClassOf(e)
		if rep == nil {
			return -1
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if vf.Rep(sig.Params().At(i)) == rep {
				return i
			}
		}
		return -1
	}
	ast.Inspect(n.Decl.Body, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sink := protoSinkOf(info, call); sink != nil {
			touches = true
			if sum == nil {
				return true
			}
			if envP := paramIndex(sink.env); envP >= 0 {
				connP := -1
				if !sink.priced {
					connP = paramIndex(sink.stream)
				}
				sum.forwards = append(sum.forwards, protoForward{env: envP, conn: connP})
				return true
			}
			if sink.priced {
				return true
			}
			if streamP := paramIndex(sink.stream); streamP >= 0 {
				if kinds := envelopeKindsIn(vf, info, sink.env); kinds != nil {
					sum.emits = append(sum.emits, protoEmit{param: streamP, kinds: kinds})
				}
			}
			return true
		}
		for _, t := range g.resolveCall(n.Pkg, call) {
			if ps.touches[t.node] {
				touches = true
			}
			csum := ps.sums[t.node]
			if csum == nil || sum == nil {
				continue
			}
			for _, e := range csum.emits {
				if p := paramIndex(argAt(call, e.param)); p >= 0 {
					sum.emits = append(sum.emits, protoEmit{param: p, kinds: e.kinds})
				}
			}
			for _, f := range csum.forwards {
				env := argAt(call, f.env)
				if envP := paramIndex(env); envP >= 0 {
					sum.forwards = append(sum.forwards, protoForward{env: envP, conn: paramIndex(argAt(call, f.conn))})
					continue
				}
				if kinds := envelopeKindsIn(vf, info, env); kinds != nil {
					if connP := paramIndex(argAt(call, f.conn)); connP >= 0 {
						sum.emits = append(sum.emits, protoEmit{param: connP, kinds: kinds})
					}
				}
			}
		}
		return true
	})
	grew := false
	if touches && !ps.touches[n] {
		ps.touches[n] = true
		grew = true
	}
	if sum != nil {
		sum.emits = dedupEmits(sum.emits)
		sum.forwards = dedupForwards(sum.forwards)
		if old := ps.sums[n]; old == nil ||
			len(old.emits) != len(sum.emits) || len(old.forwards) != len(sum.forwards) {
			ps.sums[n] = sum
			grew = grew || old == nil || len(old.emits) < len(sum.emits) || len(old.forwards) < len(sum.forwards)
		}
	}
	return grew
}

// envelopeKindsIn is envelopeKinds against an explicit value-flow graph (the
// summary builder runs outside any protoFunc).
func envelopeKindsIn(vf *ValueFlow, info *types.Info, env ast.Expr) []byte {
	pf := &protoFunc{info: info, vf: vf}
	return pf.envelopeKinds(env)
}

func dedupEmits(emits []protoEmit) []protoEmit {
	var out []protoEmit
	for _, e := range emits {
		dup := false
		for _, o := range out {
			if o.param == e.param && stateList(o.kinds) == stateList(e.kinds) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	return out
}

func dedupForwards(fwds []protoForward) []protoForward {
	var out []protoForward
	for _, f := range fwds {
		dup := false
		for _, o := range out {
			if o == f {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, f)
		}
	}
	return out
}

// resolveRoles BFS-walks the call graph from each configured role root and
// restricts every function reachable from exactly one root to that root's
// kind set.
func (ps *protoState) resolveRoles(g *CallGraph, opts *Options) {
	roots := make([]string, 0, len(opts.ProtoOrderRoles))
	for k := range opts.ProtoOrderRoles {
		roots = append(roots, k)
	}
	sort.Strings(roots)
	reached := make(map[string][]string) // funcKey -> root keys
	for _, root := range roots {
		start := g.byKey[root]
		if start == nil {
			continue
		}
		seen := map[*FuncNode]bool{start: true}
		queue := []*FuncNode{start}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			key := funcKey(n.Fn)
			reached[key] = append(reached[key], root)
			for _, e := range n.Out {
				if !seen[e.Callee] {
					seen[e.Callee] = true
					queue = append(queue, e.Callee)
				}
			}
		}
	}
	for key, rs := range reached {
		if len(rs) != 1 {
			continue
		}
		kinds := opts.ProtoOrderRoles[rs[0]]
		ps.role[key] = kinds
		ps.roleRoot[stateList(kinds)] = rs[0]
	}
}
