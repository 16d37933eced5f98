package dep

import (
	"repro/internal/par"
	"repro/ir"
)

// access is one array reference in a statement: a read or a write.
type access struct {
	stmt    *ir.Stmt
	op      ir.Operand // the ArrayRef operand
	isWrite bool
	pos     int // operand position (paper numbering); 1 for writes
}

// arrayDeps computes flow/anti/output dependences between array accesses
// using subscript tests on the affine subscript expressions:
//
//   - per-dimension strong SIV (a*i + c1 vs a*i + c2) gives an exact
//     distance and thus a single direction for that loop;
//   - ZIV (no index variables) proves or disproves the dimension;
//   - everything else falls back to a GCD test, which either disproves the
//     dependence or leaves all directions possible.
//
// Direction vectors with a leading '>' describe the reversed dependence and
// are discovered when the symmetric ordered pair is processed, so only '='
// and leading-'<' vectors are emitted here.
//
// A non-nil filter restricts the pass to the named arrays (the incremental
// updater's dirty-name set); nil analyzes every array. A non-nil touched set
// further restricts it to the access pairs with at least one endpoint in
// the set: Update keeps the edges between untouched statements.
func (g *Graph) arrayDeps(lt *loopTable, filter map[string]bool, touched map[*ir.Stmt]bool) {
	byName, names := g.collectArrayGroups(filter)
	if g.workers > 1 && len(names) > 1 {
		// Fan the per-array pair tests out over the pool: one array's tests
		// never look at another array's accesses, so sharding the name list
		// and buffering each shard's edges produces the same edge set; the
		// canonical sort in normalize erases the insertion order.
		shards := g.workers
		if shards > len(names) {
			shards = len(names)
		}
		bufs := par.Map(shards, g.workers, func(sh int) []Dependence {
			var buf []Dependence
			emit := func(d Dependence) { buf = append(buf, d) }
			for i := sh; i < len(names); i += shards {
				g.pairTests(byName[names[i]], lt, touched, emit)
			}
			return buf
		})
		for _, buf := range bufs {
			for _, d := range buf {
				g.add(d)
			}
		}
		return
	}
	// Deterministic order: the dependence list's order feeds candidate
	// enumeration and therefore the cost experiments.
	for _, name := range names {
		g.pairTests(byName[name], lt, touched, g.add)
	}
}

// collectArrayGroups gathers every array access, records the array-name
// census (g.arrays), and returns the filtered per-array access groups
// with a deterministic name order.
func (g *Graph) collectArrayGroups(filter map[string]bool) (map[string][]access, []string) {
	accesses := collectAccesses(g.Prog)
	byName := make(map[string][]access)
	var names []string
	if g.arrays == nil {
		g.arrays = make(map[string]bool)
	}
	for _, ac := range accesses {
		// Record every array name — filtered ones included — so lookup
		// counters can classify edges kept from before this update.
		g.arrays[ac.op.Name] = true
		if filter != nil && !filter[ac.op.Name] {
			continue
		}
		if _, seen := byName[ac.op.Name]; !seen {
			names = append(names, ac.op.Name)
		}
		byName[ac.op.Name] = append(byName[ac.op.Name], ac)
	}
	return byName, names
}

// pairTests runs the subscript tests over the ordered pairs of one array's
// accesses, emitting the resulting dependences: every pair when touched is
// nil, otherwise only the pairs with a touched endpoint.
func (g *Graph) pairTests(group []access, lt *loopTable, touched map[*ir.Stmt]bool, emit func(Dependence)) {
	test := func(src, dst access) {
		if kind, ok := pairKind(src, dst); ok {
			g.testPair(kind, src, dst, lt, emit)
		}
	}
	if touched == nil {
		for _, src := range group {
			for _, dst := range group {
				test(src, dst)
			}
		}
		return
	}
	var hot []access
	for _, ac := range group {
		if touched[ac.stmt] {
			hot = append(hot, ac)
		}
	}
	for _, src := range group {
		if touched[src.stmt] {
			for _, dst := range group {
				test(src, dst)
			}
			continue
		}
		for _, dst := range hot {
			test(src, dst)
		}
	}
}

func pairKind(src, dst access) (Kind, bool) {
	switch {
	case src.isWrite && !dst.isWrite:
		return Flow, true
	case !src.isWrite && dst.isWrite:
		return Anti, true
	case src.isWrite && dst.isWrite:
		if src.stmt == dst.stmt && src.pos == dst.pos {
			return Output, false // the same single store
		}
		return Output, true
	}
	return 0, false // read-read: no dependence
}

func collectAccesses(p *ir.Program) []access {
	var out []access
	for _, s := range p.Stmts() {
		if (s.Kind == ir.SAssign || s.Kind == ir.SRead) && s.Dst.IsArray() {
			out = append(out, access{stmt: s, op: s.Dst, isWrite: true, pos: 1})
		}
		for slot := 1; slot <= 3+len(s.Args); slot++ {
			opp := s.OperandSlot(slot)
			if opp == nil || !opp.IsArray() {
				continue
			}
			if (s.Kind == ir.SAssign || s.Kind == ir.SRead) && slot == 1 {
				continue // the write, already recorded
			}
			out = append(out, access{stmt: s, op: *opp, isWrite: false, pos: slot})
		}
	}
	return out
}

// testPair runs the subscript tests for one ordered access pair and emits
// the resulting dependences.
func (g *Graph) testPair(kind Kind, src, dst access, lt *loopTable, emit func(Dependence)) {
	p := g.Prog
	common := lt.common(p.Index(src.stmt), p.Index(dst.stmt))
	n := len(common)
	ls := make(levels, n)
	for k, l := range common {
		ls[k] = l.LCV()
	}

	dirs := make([]DirSet, n)
	for i := range dirs {
		dirs[i] = DirAny
	}
	bounds := loopBounds(common, ls)
	dims := len(src.op.Subs)
	if len(dst.op.Subs) < dims {
		dims = len(dst.op.Subs)
	}
	for d := 0; d < dims; d++ {
		if !constrainDim(src.op.Subs[d], dst.op.Subs[d], ls, bounds, dirs) {
			return // this dimension proves independence
		}
	}

	srcIdx, dstIdx := p.Index(src.stmt), p.Index(dst.stmt)

	// Loop-independent dependence: all levels admit '=' and the source is
	// lexically (and thus execution-order, within one iteration) first.
	allEq := true
	for _, ds := range dirs {
		if !ds.Has(DirEQ) {
			allEq = false
			break
		}
	}
	sameStore := src.stmt == dst.stmt && src.pos == dst.pos
	if allEq && srcIdx < dstIdx && !sameStore {
		emit(Dependence{
			Kind: kind, Src: src.stmt, Dst: dst.stmt, Var: src.op.Name,
			Vec: eqVector(n), SrcPos: src.pos, DstPos: dst.pos,
		})
	}
	// Within-statement loop-independent anti dependence (read then write in
	// the same statement instance, e.g. a(i) = a(i) + 1) is execution-order
	// trivial and conventionally not recorded.

	// Loop-carried dependences at each level with a '<' direction.
	for k := 0; k < n; k++ {
		ok := dirs[k].Has(DirLT)
		for j := 0; j < k && ok; j++ {
			ok = dirs[j].Has(DirEQ)
		}
		if !ok {
			continue
		}
		vec := make(Vector, n)
		for j := range vec {
			switch {
			case j < k:
				vec[j] = DirEQ
			case j == k:
				vec[j] = DirLT
			default:
				vec[j] = dirs[j]
			}
		}
		emit(Dependence{
			Kind: kind, Src: src.stmt, Dst: dst.stmt, Var: src.op.Name,
			Vec: vec, SrcPos: src.pos, DstPos: dst.pos,
			Carried: true, Level: k + 1,
		})
	}
}

// levels names the control variable of each common loop, outermost first:
// the map from an index variable to its loop level.
type levels []string

// of returns the level of index variable v. When nested loops share a
// control variable the innermost one binds it.
func (ls levels) of(v string) (int, bool) {
	for k := len(ls) - 1; k >= 0; k-- {
		if ls[k] == v {
			return k, true
		}
	}
	return 0, false
}

// bound is the iteration-value range [lo, hi] of one loop level; ok is
// false when the bounds are not constant.
type bound struct {
	lo, hi int64
	ok     bool
}

// loopBounds extracts the iteration-value range of each constant-bound
// common loop, indexed by level: the information the Banerjee and weak-SIV
// tests consume.
func loopBounds(common []ir.Loop, ls levels) []bound {
	out := make([]bound, len(ls))
	for _, l := range common {
		k, ok := ls.of(l.LCV())
		if !ok {
			continue
		}
		h := l.Head
		if !h.Init.IsConst() || !h.Final.IsConst() {
			continue
		}
		lo, hi := h.Init.Val.AsInt(), h.Final.Val.AsInt()
		if lo > hi {
			lo, hi = hi, lo
		}
		out[k] = bound{lo, hi, true}
	}
	return out
}

// constrainDim intersects the direction sets with the constraints from one
// subscript dimension (equation f(I) = g(I')). It returns false when the
// dimension proves there is no dependence. bounds carries the known
// iteration ranges per level for the Banerjee-style interval test.
func constrainDim(f, gexp ir.LinExpr, ls levels, bounds []bound, dirs []DirSet) bool {
	f = f.Normalize()
	gexp = gexp.Normalize()

	// Split both sides into common-loop index terms, per level, and
	// symbolic terms.
	type coefs struct{ src, dst int64 }
	loopCoef := make([]coefs, len(dirs))
	for _, t := range f.Terms {
		if k, ok := ls.of(t.Var); ok {
			loopCoef[k].src += t.Coef
		}
	}
	for _, t := range gexp.Terms {
		if k, ok := ls.of(t.Var); ok {
			loopCoef[k].dst += t.Coef
		}
	}
	// Loop-invariant symbols appearing with equal coefficients on both
	// sides cancel (the classical assumption); any remaining symbolic term
	// makes the dimension inconclusive — no constraint.
	if !symbolsCancel(f, gexp, ls) {
		return true
	}
	cdiff := f.Const - gexp.Const // f + cdiff*0: equation Σ a·i − Σ b·i' = −cdiff

	// ZIV: no loop terms at all.
	live := 0
	for _, c := range loopCoef {
		if c.src != 0 || c.dst != 0 {
			live++
		}
	}
	if live == 0 {
		return cdiff == 0
	}

	// Strong SIV: exactly one loop level involved, equal coefficients.
	if live == 1 {
		for k, c := range loopCoef {
			if c.src == 0 && c.dst == 0 {
				continue
			}
			if c.src == c.dst && c.src != 0 {
				// a·i + cf = a·i′ + cg  ⇒  i′ − i = (cf − cg)/a = cdiff/a.
				if cdiff%c.src != 0 {
					return false
				}
				delta := cdiff / c.src
				// With known bounds, a distance beyond the iteration span
				// can never be realized.
				if b := bounds[k]; b.ok && abs(delta) > b.hi-b.lo {
					return false
				}
				switch {
				case delta > 0:
					dirs[k] = dirs[k].Intersect(DirLT)
				case delta == 0:
					dirs[k] = dirs[k].Intersect(DirEQ)
				default:
					dirs[k] = dirs[k].Intersect(DirGT)
				}
				return dirs[k] != 0
			}
			// Weak-zero SIV: one side does not move with the loop
			// (a·i + cf = cg): the moving side must hit one exact
			// iteration value.
			if (c.src == 0) != (c.dst == 0) {
				var i0 int64
				switch {
				case c.src != 0: // a·i + cf = cg  ⇒  i = −cdiff/a
					if cdiff%c.src != 0 {
						return false
					}
					i0 = -cdiff / c.src
				default: // cf = b·i′ + cg  ⇒  i′ = cdiff/b
					if cdiff%c.dst != 0 {
						return false
					}
					i0 = cdiff / c.dst
				}
				if b := bounds[k]; b.ok && (i0 < b.lo || i0 > b.hi) {
					return false
				}
				// Directions stay unconstrained (the fixed side pairs with
				// every iteration of the moving side).
				return true
			}
			// Weak-crossing SIV and the rest: fall through to the general
			// tests below.
		}
	}

	// GCD test over all loop coefficients (src and dst sides separately).
	var g int64
	for _, c := range loopCoef {
		g = gcd(g, abs(c.src))
		g = gcd(g, abs(c.dst))
	}
	if g != 0 && cdiff%g != 0 {
		return false
	}

	// Banerjee interval test: the equation Σ a·i − Σ b·i′ + cdiff = 0 has
	// no solution when the left side's interval over the known iteration
	// ranges excludes zero. Levels without known bounds make the interval
	// unbounded on the affected side.
	lo, hi := cdiff, cdiff
	bounded := true
	for k, c := range loopCoef {
		b := bounds[k]
		if !b.ok {
			if c.src != 0 || c.dst != 0 {
				bounded = false
				break
			}
			continue
		}
		for _, coef := range []int64{c.src, -c.dst} {
			if coef == 0 {
				continue
			}
			x, y := coef*b.lo, coef*b.hi
			if x > y {
				x, y = y, x
			}
			lo += x
			hi += y
		}
	}
	if bounded && (lo > 0 || hi < 0) {
		return false
	}
	return true
}

// symbolsCancel reports whether the non-index terms of two normalized
// expressions carry equal coefficients. Normalized terms are sorted by
// variable with duplicates merged, so the symbolic parts cancel exactly
// when they are the same sequence.
func symbolsCancel(f, g ir.LinExpr, ls levels) bool {
	next := func(ts []ir.Term, i int) int {
		for i < len(ts) {
			if _, ok := ls.of(ts[i].Var); !ok {
				break
			}
			i++
		}
		return i
	}
	i, j := next(f.Terms, 0), next(g.Terms, 0)
	for i < len(f.Terms) || j < len(g.Terms) {
		if i == len(f.Terms) || j == len(g.Terms) || f.Terms[i] != g.Terms[j] {
			return false
		}
		i, j = next(f.Terms, i+1), next(g.Terms, j+1)
	}
	return true
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
