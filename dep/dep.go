// Package dep computes the data and control dependences GOSpeL
// preconditions are written in terms of: flow (δ), anti (δ̄), output (δ°)
// and control (δᶜ) dependences, each annotated with a direction vector over
// the loops common to the two statements (the paper, Section 2).
//
// Scalars are analyzed with the reaching-definitions / upward-exposed-uses
// dataflow from internal/dataflow, split into loop-independent and
// loop-carried dependences by re-running the analysis on the acyclic
// (back-edge-free) flow graph. Array references are analyzed pairwise with
// classical subscript tests (ZIV, strong SIV, and a GCD fallback), producing
// per-level direction sets.
package dep

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataflow"
	"repro/ir"
)

// Kind is the dependence type.
type Kind int

const (
	Flow Kind = iota
	Anti
	Output
	Control
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Control:
		return "control"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// DirSet is a set of possible directions at one loop level, a bitmask over
// {<, =, >}.
type DirSet uint8

const (
	DirLT  DirSet = 1 << iota // source iteration earlier (forward, '<')
	DirEQ                     // same iteration ('=')
	DirGT                     // source iteration later (backward, '>')
	DirAny = DirLT | DirEQ | DirGT
)

// Has reports whether d includes dir.
func (d DirSet) Has(dir DirSet) bool { return d&dir != 0 }

// Intersect returns the intersection.
func (d DirSet) Intersect(o DirSet) DirSet { return d & o }

// Reverse maps each direction to its opposite (swap of source and sink).
func (d DirSet) Reverse() DirSet {
	var r DirSet
	if d.Has(DirLT) {
		r |= DirGT
	}
	if d.Has(DirGT) {
		r |= DirLT
	}
	if d.Has(DirEQ) {
		r |= DirEQ
	}
	return r
}

func (d DirSet) String() string {
	switch d {
	case DirAny:
		return "*"
	case DirLT:
		return "<"
	case DirEQ:
		return "="
	case DirGT:
		return ">"
	case 0:
		return "∅"
	}
	var b strings.Builder
	if d.Has(DirLT) {
		b.WriteByte('<')
	}
	if d.Has(DirEQ) {
		b.WriteByte('=')
	}
	if d.Has(DirGT) {
		b.WriteByte('>')
	}
	return b.String()
}

// Vector is a direction vector: one DirSet per common loop, outermost first.
// A nil/empty vector means the statements share no loop (loop-independent
// dependence at nesting level zero).
type Vector []DirSet

func (v Vector) String() string {
	if len(v) == 0 {
		return "()"
	}
	parts := make([]string, len(v))
	for i, d := range v {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector { return append(Vector{}, v...) }

// Matches reports whether this dependence vector is compatible with a
// requested pattern, where each pattern element is a DirSet (use DirAny for
// the paper's '*'). An empty pattern (direction vector omitted in the
// specification) matches any vector. When the lengths differ the shorter
// side is padded: a dependence vector extends with '=' (the dependence is
// loop-independent with respect to loops it is not carried by — this is
// what lets the paper write flow_dep(Si, Sj, (=)) for statements at any
// nesting depth), and a pattern extends with '*' (unconstrained inner
// levels).
func (v Vector) Matches(pattern Vector) bool {
	if len(pattern) == 0 {
		return true
	}
	n := len(v)
	if len(pattern) > n {
		n = len(pattern)
	}
	for i := 0; i < n; i++ {
		ve, pe := DirEQ, DirAny
		if i < len(v) {
			ve = v[i]
		}
		if i < len(pattern) {
			pe = pattern[i]
		}
		if ve.Intersect(pe) == 0 {
			return false
		}
	}
	return true
}

// Dependence is one edge of the dependence graph: Src δ Dst.
type Dependence struct {
	Kind Kind
	Src  *ir.Stmt
	Dst  *ir.Stmt
	// Vec has one entry per loop common to Src and Dst, outermost first.
	Vec Vector
	// Var is the variable (scalar or array name) causing the dependence;
	// empty for control dependences.
	Var string
	// SrcPos / DstPos are the operand positions involved at each end
	// (the paper's optional (S, pos) result); 0 when not applicable
	// (e.g. subscript uses or control dependences).
	SrcPos int
	DstPos int
	// Carried reports a loop-carried dependence (some level is not '=').
	Carried bool
	// Level is the carrying loop level (1 = outermost common loop);
	// 0 for loop-independent dependences.
	Level int
}

func (d Dependence) String() string {
	return fmt.Sprintf("%s_dep(S%d → S%d, %s, %s)", d.Kind, d.Src.ID, d.Dst.ID, d.Var, d.Vec)
}

// Graph is the dependence graph of one program snapshot. It is invalidated
// by transformation; recompute after each applied optimization (the paper's
// interface offers the same choice).
type Graph struct {
	Prog *ir.Program
	Deps []Dependence

	// Entry is a synthetic statement standing for the implicit
	// zero-initialization of every scalar at program entry. A flow
	// dependence Entry → S marks a possibly-uninitialized use: the value
	// read at S is not always produced by an explicit definition, so
	// single-reaching-definition reasoning (constant and copy propagation)
	// must treat Entry as another reaching definition. Entry is not part
	// of the program's statement list.
	Entry *ir.Stmt

	// Query index, rebuilt by normalize. from/to hold edge indices by
	// statement position (slot 0 is Entry). The canonical order sorts edges
	// by kind, then source and destination position, so every per-kind
	// bucket and every exact (kind, src, dst) bucket is a contiguous run of
	// Deps: byKind holds the per-kind runs, and keys lists the packed
	// (kind, src, dst) key of each exact run in ascending order, with
	// keyStart its first edge. Buckets are handed out as sub-slices of seq,
	// the identity permutation, so no bucket is ever allocated. A deleted
	// statement also resolves to slot 0, so every consumer re-checks
	// endpoint identity while filtering.
	from     [][]int32
	to       [][]int32
	byKind   [numKinds][]int32
	keys     []uint64
	keyStart []int32
	seq      []int32

	// arrays names every array accessed by the program, so lookup counters
	// can classify data edges as scalar or array. Filled by arrayDeps.
	arrays map[string]bool

	// scratch is the spare edge buffer normalize ping-pongs with Deps, and
	// order its sort permutation, so the per-application canonicalization
	// does not allocate fresh slices every time.
	scratch []Dependence
	order   []int32
	// stats counts this graph's query and maintenance traffic. Plain (not
	// atomic) counters: a Graph, like a Program, is not safe for concurrent
	// use, and each fixpoint pass owns its graph.
	stats Stats

	// workers, when > 1, lets the heavy phases of Compute/Update — the
	// per-name dataflow re-analysis and the pairwise array subscript
	// tests — fan out over the par pool. The edge SET is identical either
	// way and normalize imposes a total canonical order, so the resulting
	// graph is byte-identical to a sequential build. Set via SetWorkers.
	workers int
}

// Stats counts a graph's query and maintenance traffic. Lookups count the
// candidate edges Query/Exists examined, classified by the edge: control
// dependences, data dependences on array locations, and data dependences
// on scalars. Updates count how the graph was refreshed after program
// edits: in place from the change journal (incremental) or by the
// structural fallback's full recomputation.
type Stats struct {
	ScalarLookups      int64
	ArrayLookups       int64
	ControlLookups     int64
	IncrementalUpdates int64
	StructuralRebuilds int64
}

// Add returns the element-wise sum.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		ScalarLookups:      s.ScalarLookups + o.ScalarLookups,
		ArrayLookups:       s.ArrayLookups + o.ArrayLookups,
		ControlLookups:     s.ControlLookups + o.ControlLookups,
		IncrementalUpdates: s.IncrementalUpdates + o.IncrementalUpdates,
		StructuralRebuilds: s.StructuralRebuilds + o.StructuralRebuilds,
	}
}

// Sub returns the element-wise difference (for phase deltas).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ScalarLookups:      s.ScalarLookups - o.ScalarLookups,
		ArrayLookups:       s.ArrayLookups - o.ArrayLookups,
		ControlLookups:     s.ControlLookups - o.ControlLookups,
		IncrementalUpdates: s.IncrementalUpdates - o.IncrementalUpdates,
		StructuralRebuilds: s.StructuralRebuilds - o.StructuralRebuilds,
	}
}

// Stats returns the graph's traffic counters (monotonic over the graph's
// lifetime; recomputations do not reset them).
func (g *Graph) Stats() Stats { return g.stats }

// AddStats folds a delta (typically a worker shadow's traffic) into the
// graph's counters.
func (g *Graph) AddStats(s Stats) { g.stats = g.stats.Add(s) }

// SetWorkers sets how many goroutines Compute/Update may use for the
// dependence derivation itself (n <= 1 keeps everything sequential). The
// graph stays single-owner: parallelism is internal to one maintenance
// call and the result is identical to the sequential build.
func (g *Graph) SetWorkers(n int) { g.workers = n }

// Shadow returns a read-only view of the graph for a concurrent search
// worker: it shares the edge slices and query index (immutable while no
// mutation runs) but carries private, zeroed stats so workers never race on
// the counters. The caller merges each shadow's Stats back with AddStats
// once the parallel section ends. Shadows must not be used across a
// program mutation or an Update/Compute on the parent.
func (g *Graph) Shadow() *Graph {
	s := *g
	s.stats = Stats{}
	return &s
}

// countLookup classifies one examined candidate edge.
func (g *Graph) countLookup(d *Dependence) {
	switch {
	case d.Kind == Control:
		g.stats.ControlLookups++
	case g.arrays[d.Var]:
		g.stats.ArrayLookups++
	default:
		g.stats.ScalarLookups++
	}
}

// numKinds is the number of Kind values (Flow..Control).
const numKinds = 4

// slot maps a statement to its adjacency index: position+1, with 0 for the
// synthetic Entry statement (and for statements not in the program).
func (g *Graph) slot(s *ir.Stmt) int {
	if s == g.Entry {
		return 0
	}
	return g.Prog.Index(s) + 1
}

// key packs an exact (kind, src-slot, dst-slot) query into one integer.
// Positions fit in 28 bits each; programs are nowhere near that size. Keys
// ascend along the canonical edge order.
func key(kind Kind, si, di int) uint64 {
	return uint64(kind)<<56 | uint64(si)<<28 | uint64(di)
}

// Dataflow computes the dataflow analysis (liveness etc.) of the program's
// current snapshot. The graph does not retain it: dependence maintenance
// never reads it back.
func (g *Graph) Dataflow() *dataflow.Analysis { return dataflow.Analyze(g.Prog) }

// Compute builds the full dependence graph for p.
func Compute(p *ir.Program) *Graph {
	g := &Graph{Prog: p, Entry: &ir.Stmt{Kind: ir.SAssign}}
	g.recompute()
	return g
}

// Recompute rebuilds the graph from scratch for its program's current
// state, in place. It keeps the Entry statement's identity, the worker
// setting and the traffic counters, so a caller sharing the graph across
// passes (the full-recompute differential mode) sees the same object with
// monotonic Stats.
func (g *Graph) Recompute() { g.recompute() }

// recompute rebuilds the whole graph in place, preserving the Entry
// statement's identity so existing bindings to it stay valid.
func (g *Graph) recompute() {
	p := g.Prog
	g.Deps = g.Deps[:0]
	g.arrays = make(map[string]bool)
	lt := buildLoopTable(p)
	g.scalarDepsFrom(dataflow.Analyze(p), lt)
	g.arrayDeps(lt, nil, nil)
	g.controlDeps()
	g.normalize()
}

// add appends a freshly derived edge. Exact duplicates (the scalar
// analysis emits one per repeated use of a name in a statement) are
// dropped by normalize, where they sort next to each other.
func (g *Graph) add(d Dependence) {
	if d.Src == nil || d.Dst == nil {
		return
	}
	g.Deps = append(g.Deps, d)
}

// relink rebuilds the adjacency lists and the run index from the sorted
// edge list: one linear pass, allocation-free once the backing arrays have
// grown to the program's size.
func (g *Graph) relink() {
	n := g.Prog.Len() + 1
	if cap(g.from) >= n && cap(g.to) >= n {
		g.from = g.from[:n]
		g.to = g.to[:n]
		for i := 0; i < n; i++ {
			g.from[i] = g.from[i][:0]
			g.to[i] = g.to[i][:0]
		}
	} else {
		g.from = make([][]int32, n)
		g.to = make([][]int32, n)
	}
	for i := int32(len(g.seq)); i < int32(len(g.Deps)); i++ {
		g.seq = append(g.seq, i)
	}
	g.keys = g.keys[:0]
	g.keyStart = g.keyStart[:0]
	var kindStart [numKinds + 1]int32
	kind := Kind(-1)
	for i := range g.Deps {
		d := &g.Deps[i]
		si, di := g.slot(d.Src), g.slot(d.Dst)
		g.from[si] = append(g.from[si], int32(i))
		g.to[di] = append(g.to[di], int32(i))
		for kind < d.Kind {
			kind++
			kindStart[kind] = int32(i)
		}
		if k := key(d.Kind, si, di); len(g.keys) == 0 || g.keys[len(g.keys)-1] != k {
			g.keys = append(g.keys, k)
			g.keyStart = append(g.keyStart, int32(i))
		}
	}
	for kind < numKinds {
		kind++
		kindStart[kind] = int32(len(g.Deps))
	}
	for k := range g.byKind {
		g.byKind[k] = g.seq[kindStart[k]:kindStart[k+1]]
	}
}

// bucket returns the run of edges linked under the exact key k.
func (g *Graph) bucket(k uint64) []int32 {
	i := sort.Search(len(g.keys), func(i int) bool { return g.keys[i] >= k })
	if i == len(g.keys) || g.keys[i] != k {
		return nil
	}
	end := int32(len(g.Deps))
	if i+1 < len(g.keyStart) {
		end = g.keyStart[i+1]
	}
	return g.seq[g.keyStart[i]:end]
}

// normalize sorts the edge list into a canonical order and rebuilds the
// adjacency and query indexes. Both Compute and Update finish with
// normalize, so an incrementally maintained graph is identical — edge order
// included — to a freshly computed one, which keeps candidate enumeration
// deterministic and makes the differential tests exact.
func (g *Graph) normalize() { g.normalizeFrom(0) }

// normalizeFrom is normalize knowing the first n edges are already in
// canonical order and free of duplicates: it sorts and deduplicates only
// the suffix and merges the two runs. Update passes the kept-edge count —
// the sort then runs only over the freshly derived edges, which never
// duplicate a kept one (see Update). normalizeFrom(0) is a plain full
// sort.
func (g *Graph) normalizeFrom(n int) {
	m := len(g.Deps)
	if n > m {
		n = m
	}
	// The comparator is a total order on distinct edges, so sorting an
	// index permutation and permuting once is equivalent to a stable sort
	// of the edge structs — and much cheaper: the sort swaps ints instead
	// of 100-byte structs through reflection.
	idx := g.order[:0]
	for i := n; i < m; i++ {
		idx = append(idx, int32(i))
	}
	g.order = idx
	sort.Slice(idx, func(x, y int) bool {
		return g.less(&g.Deps[idx[x]], &g.Deps[idx[y]])
	})
	// Equal edges are adjacent now; keep the first of each run. Two edges
	// equal under less share kind, endpoints, variable, positions and
	// vector, which is exactly what makes them duplicates.
	u := 0
	for _, e := range idx {
		if u > 0 && !g.less(&g.Deps[idx[u-1]], &g.Deps[e]) {
			continue
		}
		idx[u] = e
		u++
	}
	idx = idx[:u]
	if cap(g.scratch) < m {
		g.scratch = make([]Dependence, 0, m+m/2)
	}
	// Merge by binary-searching each new edge's place in the kept run and
	// block-copying the kept edges before it: an update derives a few
	// dozen edges against thousands kept, so this costs O(new · log kept)
	// comparisons instead of one per kept edge.
	out := g.scratch[:0]
	i := 0
	for _, e := range idx {
		d := &g.Deps[e]
		end := i + sort.Search(n-i, func(k int) bool { return g.less(d, &g.Deps[i+k]) })
		out = append(out, g.Deps[i:end]...)
		out = append(out, *d)
		i = end
	}
	out = append(out, g.Deps[i:n]...)
	g.scratch = g.Deps[:0]
	g.Deps = out
	g.relink()
}

// less is the canonical edge order: a strict total order on distinct
// edges, anchored at statement positions (Entry first).
func (g *Graph) less(a, b *Dependence) bool {
	p := g.Prog
	pos := func(s *ir.Stmt) int {
		if s == g.Entry {
			return -1
		}
		return p.Index(s)
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if ai, bi := pos(a.Src), pos(b.Src); ai != bi {
		return ai < bi
	}
	if ai, bi := pos(a.Dst), pos(b.Dst); ai != bi {
		return ai < bi
	}
	if a.Var != b.Var {
		return a.Var < b.Var
	}
	if a.SrcPos != b.SrcPos {
		return a.SrcPos < b.SrcPos
	}
	if a.DstPos != b.DstPos {
		return a.DstPos < b.DstPos
	}
	if a.Level != b.Level {
		return a.Level < b.Level
	}
	if a.Carried != b.Carried {
		return !a.Carried
	}
	if len(a.Vec) != len(b.Vec) {
		return len(a.Vec) < len(b.Vec)
	}
	for k := range a.Vec {
		if a.Vec[k] != b.Vec[k] {
			return a.Vec[k] < b.Vec[k]
		}
	}
	return false
}

// From returns the dependences emanating from s.
func (g *Graph) From(s *ir.Stmt) []Dependence {
	var out []Dependence
	for _, i := range g.from[g.slot(s)] {
		if d := g.Deps[i]; d.Src == s {
			out = append(out, d)
		}
	}
	return out
}

// To returns the dependences terminating at s.
func (g *Graph) To(s *ir.Stmt) []Dependence {
	var out []Dependence
	for _, i := range g.to[g.slot(s)] {
		if d := g.Deps[i]; d.Dst == s {
			out = append(out, d)
		}
	}
	return out
}

// candidates returns the tightest index bucket covering a (kind, src, dst)
// query with nil wildcards. Callers must still filter: adjacency and
// per-kind buckets over-approximate, and slot 0 conflates Entry with
// statements no longer in the program.
func (g *Graph) candidates(kind Kind, src, dst *ir.Stmt) []int32 {
	switch {
	case src != nil && dst != nil:
		return g.bucket(key(kind, g.slot(src), g.slot(dst)))
	case src != nil:
		return g.from[g.slot(src)]
	case dst != nil:
		return g.to[g.slot(dst)]
	default:
		return g.byKind[kind]
	}
}

func (g *Graph) matches(d *Dependence, kind Kind, src, dst *ir.Stmt, pattern Vector) bool {
	return d.Kind == kind &&
		(src == nil || d.Src == src) &&
		(dst == nil || d.Dst == dst) &&
		d.Vec.Matches(pattern)
}

// Query returns all dependences of the given kind between src and dst
// matching the direction pattern. Either src or dst may be nil as a
// wildcard. This is the paper's dep routine (Fig. 7) generalized to return
// the full match set; the engine layers the LST/IF search modes on top. An
// exact query resolves to one hash bucket; wildcard forms scan the matching
// statement's adjacency list or the per-kind list, never the whole graph.
func (g *Graph) Query(kind Kind, src, dst *ir.Stmt, pattern Vector) []Dependence {
	var out []Dependence
	for _, i := range g.candidates(kind, src, dst) {
		d := &g.Deps[i]
		g.countLookup(d)
		if g.matches(d, kind, src, dst, pattern) {
			out = append(out, *d)
		}
	}
	return out
}

// Count returns how many dependences Query would return, examining and
// tallying the same candidate edges, without copying them.
func (g *Graph) Count(kind Kind, src, dst *ir.Stmt, pattern Vector) int {
	n := 0
	for _, i := range g.candidates(kind, src, dst) {
		d := &g.Deps[i]
		g.countLookup(d)
		if g.matches(d, kind, src, dst, pattern) {
			n++
		}
	}
	return n
}

// Exists reports whether any dependence matches the query. Unlike Query it
// allocates nothing and stops at the first match.
func (g *Graph) Exists(kind Kind, src, dst *ir.Stmt, pattern Vector) bool {
	for _, i := range g.candidates(kind, src, dst) {
		d := &g.Deps[i]
		g.countLookup(d)
		if g.matches(d, kind, src, dst, pattern) {
			return true
		}
	}
	return false
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, d := range g.Deps {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
