// Package cfg builds a control-flow graph over the structured IR. Nodes are
// individual statements (programs in this system are small source routines,
// so statement-granularity keeps the dataflow clients simple); a basic-block
// view is derived on top for clients that want one.
//
// Edge model for the structured statements:
//
//   - DO head → first body statement (loop entered) and → statement after
//     the matching ENDDO (zero-trip exit).
//   - ENDDO → its DO head (back edge).
//   - IF → first THEN statement and → first ELSE statement (or the ENDIF
//     when there is no ELSE).
//   - A statement whose successor would be an ELSE falls through to the
//     matching ENDIF instead (end of the THEN branch).
package cfg

import (
	"fmt"
	"strings"

	"repro/ir"
)

// Graph is a statement-level control-flow graph. Indices are positions in
// the program's statement list at build time; the graph is a snapshot and
// must be rebuilt after the program is transformed.
type Graph struct {
	Prog *ir.Program
	Succ [][]int
	Pred [][]int
}

// Build constructs the CFG for p.
func Build(p *ir.Program) *Graph { return build(p, true) }

// BuildForward constructs the CFG without loop back edges (ENDDO → DO).
// The resulting graph is acyclic; dataflow facts computed on it describe a
// single iteration, which the dependence analyzer uses to separate
// loop-independent from loop-carried dependences.
func BuildForward(p *ir.Program) *Graph { return build(p, false) }

func build(p *ir.Program, withBackEdges bool) *Graph {
	n := p.Len()
	// Edges are collected in source order and then laid out in two flat
	// arrays, so a build costs a few allocations rather than two per
	// statement.
	type edge struct{ from, to int }
	edges := make([]edge, 0, 2*n)
	add := func(from, to int) {
		if to < 0 || to >= n {
			return
		}
		edges = append(edges, edge{from, to})
	}
	for i := 0; i < n; i++ {
		s := p.At(i)
		switch s.Kind {
		case ir.SDoHead:
			end := ir.MatchingEnd(p, s)
			add(i, i+1) // into the body (or directly to the ENDDO if empty)
			if end != nil {
				add(i, p.Index(end)+1) // zero-trip exit
			}
		case ir.SDoEnd:
			if withBackEdges {
				if head := ir.MatchingHead(p, s); head != nil {
					add(i, p.Index(head)) // back edge
				}
			} else {
				// Forward-only view: the ENDDO falls through to the loop
				// exit so one-iteration facts still flow past the loop.
				add(i, i+1)
			}
		case ir.SIf:
			els, endif := ir.MatchingEndIf(p, s)
			add(i, i+1) // THEN branch (or ELSE/ENDIF when empty)
			switch {
			case els != nil:
				add(i, p.Index(els)+1)
			case endif != nil:
				add(i, p.Index(endif))
			}
		case ir.SElse:
			// Reaching the ELSE marker means the THEN branch finished;
			// control jumps over the ELSE branch to the matching ENDIF.
			if endif := matchingEndIfOfElse(p, s); endif != nil {
				add(i, p.Index(endif))
			}
		default:
			add(i, i+1)
		}
	}
	g := &Graph{Prog: p, Succ: make([][]int, n), Pred: make([][]int, n)}
	succ := make([]int, len(edges))
	predStart := make([]int, n+1)
	for k, e := range edges {
		succ[k] = e.to
		predStart[e.to+1]++
	}
	for i := 0; i < n; i++ {
		predStart[i+1] += predStart[i]
	}
	pred := make([]int, len(edges))
	fill := append([]int(nil), predStart[:n]...)
	for _, e := range edges {
		pred[fill[e.to]] = e.from
		fill[e.to]++
	}
	// Successor runs are contiguous because edges were added in source
	// order. Deduplicate each list (empty-body loops can produce
	// duplicates); the capacity limits keep the runs from overlapping.
	k := 0
	for i := 0; i < n; i++ {
		j := k
		for j < len(edges) && edges[j].from == i {
			j++
		}
		g.Succ[i] = dedup(succ[k:j:j])
		g.Pred[i] = dedup(pred[predStart[i]:predStart[i+1]:predStart[i+1]])
		k = j
	}
	return g
}

// dedup drops repeated entries in place, keeping first occurrences. Edge
// lists hold at most a handful of entries, so a quadratic scan beats a set.
func dedup(xs []int) []int {
	out := xs[:0]
outer:
	for _, x := range xs {
		for _, y := range out {
			if x == y {
				continue outer
			}
		}
		out = append(out, x)
	}
	return out
}

func matchingEndIfOfElse(p *ir.Program, els *ir.Stmt) *ir.Stmt {
	depth := 0
	for i := p.Index(els) + 1; i < p.Len(); i++ {
		s := p.At(i)
		switch s.Kind {
		case ir.SIf:
			depth++
		case ir.SEndIf:
			if depth == 0 {
				return s
			}
			depth--
		}
	}
	return nil
}

// Reachable returns the set of statement indices reachable from entry
// (index 0). Statements can become unreachable after transformations.
func (g *Graph) Reachable() []bool {
	n := len(g.Succ)
	seen := make([]bool, n)
	if n == 0 {
		return seen
	}
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Succ[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// ReachableFrom returns the statements reachable from index i by following
// successor edges (i itself included).
func (g *Graph) ReachableFrom(i int) []bool {
	return g.flood(i, g.Succ)
}

// Reaches returns the statements from which index i is reachable
// (i itself included).
func (g *Graph) Reaches(i int) []bool {
	return g.flood(i, g.Pred)
}

func (g *Graph) flood(start int, edges [][]int) []bool {
	seen := make([]bool, len(edges))
	if start < 0 || start >= len(edges) {
		return seen
	}
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range edges[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// Block is a maximal straight-line run of statements: a basic block of the
// statement-level graph.
type Block struct {
	Start, End int // statement index range [Start, End]
}

// Blocks partitions the graph into basic blocks using the classic leader
// algorithm: the entry, every branch target, and every statement following a
// multi-successor statement begin a block.
func (g *Graph) Blocks() []Block {
	n := len(g.Succ)
	if n == 0 {
		return nil
	}
	leader := make([]bool, n)
	leader[0] = true
	for i := 0; i < n; i++ {
		if len(g.Succ[i]) > 1 {
			for _, t := range g.Succ[i] {
				leader[t] = true
			}
			if i+1 < n {
				leader[i+1] = true
			}
		}
		for _, t := range g.Succ[i] {
			if t != i+1 {
				leader[t] = true
				if i+1 < n {
					leader[i+1] = true
				}
			}
		}
	}
	var blocks []Block
	start := 0
	for i := 1; i < n; i++ {
		if leader[i] {
			blocks = append(blocks, Block{Start: start, End: i - 1})
			start = i
		}
	}
	blocks = append(blocks, Block{Start: start, End: n - 1})
	return blocks
}

// String renders the graph in a compact adjacency form for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for i, succ := range g.Succ {
		fmt.Fprintf(&b, "%3d %-30s ->", i, ir.FormatStmt(g.Prog.At(i)))
		for _, t := range succ {
			fmt.Fprintf(&b, " %d", t)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
