// Package elision proves that an instrumented variable is only ever
// touched by a single step and reports its instrumentation as safely
// removable.
//
// Every instrumented access pays the checker's per-access dispatch. A
// handle whose accesses all happen in one step region — one task, with
// no task-structure operation between them — can never participate in
// an atomicity violation: there is no parallel step to interleave
// with. Removing (or never adding) its instrumentation is therefore
// sound, exactly like the annotation pruning a compiler pass would do.
// This composes with the checker's dynamic repeat skipping (the
// offer-once flags, and the batch deduplicator under Batch): those skip
// repeat accesses at runtime, elision removes the handle's events
// altogether.
//
// Two proofs are attempted, cheapest first. The single-step proof is
// purely local: the handle is bound once by x := s.New*Var(...), never
// escapes (no aliasing, no calls other than its own access methods, no
// Atomic grouping), all checker-visible accesses share one closure
// context, that context contains no structure operations and never
// hands its task to non-avd code (the callee could spawn), and no
// enclosing closure replicates it or re-instantiates it in a loop.
// When that fails, the static-MHP
// proof takes over: the staticmhp engine grows a static DPST per entry
// point, and a handle whose modeled access sites cover every
// instrumented access and are pairwise never-may-happen-in-parallel is
// serial even across steps — stores in a spawned child and loads after
// the join elide, which the single-step proof can never conclude.
// Either way, anything unprovable stays silent — the analyzer only
// speaks when elision is certain.
//
// Findings are informational (Severity info): they are a performance
// lever, not a contract violation, and never fail a lint run.
package elision

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/taskpar/avd/internal/analysis"
	"github.com/taskpar/avd/internal/analysis/avdapi"
	"github.com/taskpar/avd/internal/analysis/staticmhp"
)

// Analyzer is the elision pass.
var Analyzer = &analysis.Analyzer{
	Name:            "elision",
	Doc:             "report instrumented variables provably touched by a single step (instrumentation elidable)",
	DefaultSeverity: analysis.SeverityInfo,
	Run:             run,
}

// neutralMethods are handle methods that emit no checker event.
var neutralMethods = map[string]bool{
	"Value": true, "SetValue": true, "AddValue": true,
	"Name": true, "Loc": true, "Len": true, "LocAt": true,
}

// uninstrumented maps each instrumented access method to its
// event-free counterpart — the rewrite applied by avd-lint -fix.
var uninstrumented = map[string]string{
	"Load": "Value", "Store": "SetValue", "Add": "AddValue",
}

// handle tracks one candidate instrumented variable.
type handle struct {
	obj  *types.Var
	kind string
	// contexts collects the distinct closure contexts of all accesses;
	// the key is the innermost enclosing task closure (nil = the
	// declaring function's serial body).
	contexts map[*ast.FuncLit]bool
	// accesses are the instrumented call sites, in visit order; they
	// seed the suggested rewrite when the handle proves single-step.
	accesses []*ast.CallExpr
	bad      bool // escaped, grouped, or otherwise unprovable
}

func run(pass *analysis.Pass) error {
	index := pass.API.IndexTaskClosures(pass.Files)
	handles := collectHandles(pass)
	if len(handles) == 0 {
		return nil
	}
	classifyUses(pass, index, handles)

	var objs []*types.Var
	for obj := range handles {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		h := handles[obj]
		if h.bad || len(h.accesses) == 0 {
			continue
		}
		if len(h.contexts) == 1 {
			var ctx *ast.FuncLit
			for c := range h.contexts {
				ctx = c
			}
			if singleStepContext(pass, index, ctx, obj) {
				pass.Report(analysis.Diagnostic{
					Pos: obj.Pos(),
					Message: fmt.Sprintf(
						"%s %s is only ever accessed by a single step; its instrumentation can be elided safely (use a plain local, or keep it for documentation)",
						h.kind, obj.Name()),
					SuggestedFixes: elisionFix(h),
				})
				continue
			}
		}
		if staticallySerial(pass, h) {
			pass.Report(analysis.Diagnostic{
				Pos: obj.Pos(),
				Message: fmt.Sprintf(
					"%s %s is statically proven serial (no two accesses may happen in parallel); its instrumentation can be elided safely",
					h.kind, obj.Name()),
				SuggestedFixes: elisionFix(h),
			})
		}
	}
	return nil
}

// staticallySerial proves a handle serial through the static DPST: the
// trees of the package's entry points must model every one of the
// handle's instrumented accesses (same position set — a handle with
// accesses the trees never reach stays unproven), and within each tree
// the sites of each handle instance must be pairwise never-MHP,
// including against themselves (a site inside a replicated region
// sharing its instance may race with its own copies). Instances are
// checked independently: two inlinings of the declaring function bind
// two distinct runtime handles, and sites on different instances can
// never form a pattern on one location.
func staticallySerial(pass *analysis.Pass, h *handle) bool {
	eng := staticmhp.Shared(pass.API, pass.Files)
	want := make(map[token.Pos]bool, len(h.accesses))
	for _, call := range h.accesses {
		want[call.Pos()] = true
	}
	got := make(map[token.Pos]bool)
	for _, root := range eng.Roots() {
		tree := eng.Tree(root)
		var mine []*staticmhp.Site
		for _, s := range tree.Sites {
			if s.Key.Obj == h.obj {
				mine = append(mine, s)
			}
		}
		if len(mine) == 0 {
			continue
		}
		if tree.Truncated {
			return false
		}
		byInst := make(map[int][]*staticmhp.Site)
		for _, s := range mine {
			got[s.Pos] = true
			byInst[s.Key.Inst] = append(byInst[s.Key.Inst], s)
		}
		for _, sites := range byInst {
			scope := tree.Scope[sites[0].Key]
			for i, a := range sites {
				if tree.Par(a, a, scope) {
					return false
				}
				for _, b := range sites[i+1:] {
					if tree.Par(a, b, scope) {
						return false
					}
				}
			}
		}
	}
	if len(got) == 0 || len(got) != len(want) {
		return false
	}
	for p := range want {
		if !got[p] {
			return false
		}
	}
	return true
}

// elisionFix rewrites every instrumented access of a proven handle to
// its uninstrumented accessor: Load→Value, Store→SetValue,
// Add→AddValue, each dropping the task argument. The rewrite is
// behavior-preserving (same atomics underneath) and analysis-
// preserving (a single-step handle emits only events the checker would
// never pair into a violation).
func elisionFix(h *handle) []analysis.SuggestedFix {
	fix := analysis.SuggestedFix{
		Message: fmt.Sprintf("use uninstrumented accessors on %s", h.obj.Name()),
	}
	for _, call := range h.accesses {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		repl, ok := uninstrumented[sel.Sel.Name]
		if !ok || len(call.Args) == 0 {
			return nil
		}
		fix.TextEdits = append(fix.TextEdits, analysis.TextEdit{
			Pos: sel.Sel.Pos(), End: sel.Sel.End(), NewText: []byte(repl),
		})
		// Drop the task argument (always Args[0] on instrumented ops),
		// including the separating comma when more arguments follow.
		del := analysis.TextEdit{Pos: call.Args[0].Pos(), End: call.Args[0].End()}
		if len(call.Args) > 1 {
			del.End = call.Args[1].Pos()
		}
		fix.TextEdits = append(fix.TextEdits, del)
	}
	if len(fix.TextEdits) == 0 {
		return nil
	}
	return []analysis.SuggestedFix{fix}
}

// collectHandles finds x := s.New*Var(...) bindings.
func collectHandles(pass *analysis.Pass) map[*types.Var]*handle {
	handles := make(map[*types.Var]*handle)
	pass.Inspector.Preorder([]ast.Node{(*ast.AssignStmt)(nil)}, func(n ast.Node) {
		as := n.(*ast.AssignStmt)
		if len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i := range as.Lhs {
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			name, _, ok := pass.API.SessionOp(call)
			if !ok {
				continue
			}
			switch name {
			case "NewIntVar", "NewFloatVar", "NewIntArray", "NewFloatArray":
			default:
				continue
			}
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[id].(*types.Var)
			if !ok {
				continue
			}
			handles[obj] = &handle{obj: obj, kind: name[3:], contexts: map[*ast.FuncLit]bool{}}
		}
	})
	return handles
}

// classifyUses visits every use of every candidate and either records
// an access context or disqualifies the handle.
func classifyUses(pass *analysis.Pass, index map[*ast.FuncLit]*avdapi.ClosureInfo, handles map[*types.Var]*handle) {
	pass.Inspector.WithStack([]ast.Node{(*ast.Ident)(nil)}, func(n ast.Node, push bool, stack []ast.Node) {
		if !push {
			return
		}
		id := n.(*ast.Ident)
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return
		}
		h, ok := handles[obj]
		if !ok {
			return
		}
		// The only provable use shape is a direct method call x.M(...).
		if len(stack) >= 3 {
			if sel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && sel.X == id {
				if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && call.Fun == sel {
					if _, isOp := pass.API.InstrumentedOp(call); isOp {
						ctx, provable := accessContext(index, stack)
						if !provable {
							h.bad = true
							return
						}
						h.contexts[ctx] = true
						h.accesses = append(h.accesses, call)
						return
					}
					if neutralMethods[sel.Sel.Name] {
						return
					}
				}
			}
		}
		h.bad = true // any other use: aliased, passed, grouped, returned
	})
}

// accessContext finds the innermost enclosing task closure of an
// access. The access is unprovable when a plain (non-task) function
// literal sits in between — that closure may run on any task, later,
// or many times.
func accessContext(index map[*ast.FuncLit]*avdapi.ClosureInfo, stack []ast.Node) (*ast.FuncLit, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		if _, isTask := index[lit]; isTask {
			return lit, true
		}
		return nil, false // plain closure in between
	}
	return nil, true // serial body of the declaring function
}

// singleStepContext checks that ctx executes as exactly one step for
// this handle: no structure operations inside it, not replicated, and
// no replicated closure between it and the handle's declaration.
func singleStepContext(pass *analysis.Pass, index map[*ast.FuncLit]*avdapi.ClosureInfo, ctx *ast.FuncLit, obj *types.Var) bool {
	var body ast.Node
	if ctx != nil {
		body = ctx.Body
	} else {
		// All accesses are in serial code; find the declaring function.
		for _, f := range pass.Files {
			if f.Pos() <= obj.Pos() && obj.Pos() < f.End() {
				body = enclosingFuncBody(f, obj.Pos())
			}
		}
		if body == nil {
			return false
		}
	}
	if containsStructureOp(pass, body) {
		return false
	}
	// Climb the closure chain: replication anywhere between the access
	// context and the declaration scope means many dynamic steps share
	// the one handle.
	for lit := ctx; lit != nil; {
		if lit.Pos() <= obj.Pos() && obj.Pos() < lit.End() {
			break // declared inside: outer replication makes fresh handles
		}
		info, ok := index[lit]
		if !ok {
			return false
		}
		// Replication means parallel copies; a structure call in a loop
		// means the closure is re-instantiated per iteration — many
		// dynamic steps either way, so the single-step claim is false
		// (the static proof may still show the steps are serial).
		if info.Replicated || info.InLoop {
			return false
		}
		lit = info.Frame
	}
	return true
}

// enclosingFuncBody finds the body of the innermost function
// declaration or literal containing pos.
func enclosingFuncBody(f *ast.File, pos token.Pos) ast.Node {
	var body ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			return false // prune subtrees that do not contain pos
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				body = fn.Body
			}
		case *ast.FuncLit:
			body = fn.Body
		}
		return true
	})
	return body
}

// containsStructureOp reports whether body contains any task-structure
// call, ignoring nested function literals. A call that hands the task
// to a non-avd function counts too: the callee may spawn or sync
// internally, which would split the context into several steps, so the
// single-step proof must give up on it.
func containsStructureOp(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if pass.API.Structure(call) != avdapi.KindNone {
				found = true
				return false
			}
			if passesTaskToUnknown(pass, call) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// passesTaskToUnknown reports whether call hands a *Task to a callee
// outside the avd API (or to an unresolvable callee, such as a call
// through a function variable). avd's own entry points are exempt: the
// handle methods and mutex operations never alter task structure.
func passesTaskToUnknown(pass *analysis.Pass, call *ast.CallExpr) bool {
	if fn := pass.API.Callee(call); fn != nil && fn.Pkg() != nil && avdapi.IsAVDPath(fn.Pkg().Path()) {
		return false
	}
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && avdapi.IsTaskPtr(tv.Type) {
			return true
		}
	}
	return false
}
