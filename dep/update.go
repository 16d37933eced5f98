package dep

import (
	"repro/internal/dataflow"
	"repro/ir"
)

// Update incrementally maintains the graph after the program edits recorded
// in changes (an ir.ChangeLog slice). It re-derives only the dependences the
// edits can have changed, keeping every other edge, and falls back to a
// full recomputation when an edit changes the CFG shape (any change
// involving a DO/IF bracket statement, or a wholesale program replacement).
// The result is identical — edge order included — to a fresh Compute of the
// current program. It returns false when the fallback path ran.
//
// The incremental path rests on three observations. First, the CFG is
// determined solely by statement kinds and bracket positions, so edits to
// straight-line statements (assign, read, print) leave it intact up to index
// renumbering. Second, reaching-definition gen/kill sets only interact
// within a single location name: a statement neither generates nor kills
// facts about names it does not access, so its insertion, removal, movement
// or rewriting cannot change the dataflow facts — and hence the scalar
// dependences — of any other name. Re-analyzing the union of names accessed
// by the old and new images of every edited statement
// (dataflow.AnalyzeNames) therefore reproduces exactly the scalar edges a
// full recomputation would build for them. Third, an array edge is the
// subscript test of one access pair, which reads only the two statements'
// relative order, their common loops, those loops' bounds and the two
// subscripts. Without a bracket edit, two statements no edit names keep all
// four, so their array edges stand; only pairs with a touched endpoint are
// retested.
//
// Per-primitive rules (touched statements have their array pairs retested;
// every name a touched statement accesses, before or after, is dirty):
//
//	Add(s), Copy → s:  s touched; control edges onto s rebuilt
//	Delete(s):         s touched; edges incident to s dropped
//	Move(s):           s touched; control edges onto s rebuilt
//	Modify(s):         s touched, old AND new images' names dirty
//	Modify(DO head), same LCV, new bounds: additionally every statement of
//	                   the loop body touched — bound values shape the
//	                   direction vectors of array dependences between body
//	                   statements (scalar dependences ignore bounds, so a
//	                   DOALL marking alone touches only the head)
//	Modify(IF head), same kind: as Modify(s) — the control region and its
//	                   edges are unchanged
//	kind change / LCV rename / insert, delete or move of any bracket
//	statement / CopyFrom:  full recomputation
//
// A dirty name loses its scalar edges and those of its array edges with a
// touched endpoint; the re-derived edges never duplicate a kept one (new
// scalar edges are on dirty names, new array edges have a touched
// endpoint, new control edges end at a placed statement). No kept edge
// touches a moved statement, so the kept edges stay in canonical order and
// the edge index is linked once, after the merge.
func (g *Graph) Update(changes []ir.Change) bool {
	if len(changes) == 0 {
		return true
	}
	p := g.Prog
	dirty := make(map[string]bool)
	touched := make(map[*ir.Stmt]bool)
	placed := make(map[*ir.Stmt]bool) // inserted, moved or deleted
	for _, c := range changes {
		if structuralChange(c) {
			g.stats.StructuralRebuilds++
			g.recompute()
			return false
		}
		touched[c.Stmt] = true
		addStmtNames(dirty, c.Stmt)
		switch c.Kind {
		case ir.ChangeModify:
			addStmtNames(dirty, c.Before)
			if c.Stmt.Kind == ir.SDoHead && !sameBounds(c.Before, c.Stmt) {
				g.touchLoopBody(c.Stmt, dirty, touched)
			}
		case ir.ChangeInsert, ir.ChangeMove, ir.ChangeDelete:
			placed[c.Stmt] = true
		}
	}

	// Drop every edge the edits can have invalidated: control edges onto a
	// placed statement, data edges on a dirty name except array edges
	// between untouched statements, and any edge with an endpoint no
	// longer in the program.
	kept := 0
	for i := range g.Deps {
		d := &g.Deps[i]
		switch {
		case d.Kind == Control:
			if placed[d.Dst] || p.Index(d.Src) < 0 || p.Index(d.Dst) < 0 {
				continue
			}
		case dirty[d.Var] && (touched[d.Src] || touched[d.Dst] || !g.isArrayEdge(d)):
			continue
		case (d.Src != g.Entry && p.Index(d.Src) < 0) || p.Index(d.Dst) < 0:
			continue
		}
		if kept != i {
			g.Deps[kept] = *d
		}
		kept++
	}
	g.Deps = g.Deps[:kept]

	// Rebuild the dirty region: scalar dependences of the dirty names,
	// array dependences of their touched access pairs, and control
	// dependences onto placed statements.
	lt := buildLoopTable(p)
	if len(dirty) > 0 {
		g.scalarDepsFrom(dataflow.AnalyzeNames(p, dirty), lt)
		g.arrayDeps(lt, dirty, touched)
	}
	for s := range placed {
		i := p.Index(s)
		if i < 0 {
			continue // deleted (or inserted then deleted)
		}
		for _, head := range lt.ctrlHeads[i] {
			g.add(Dependence{Kind: Control, Src: head, Dst: s})
		}
	}
	g.normalizeFrom(kept)
	g.stats.IncrementalUpdates++
	return true
}

// isArrayEdge reports whether data edge d joins two array accesses: its
// source operand is a reference to the array d is on. The operand is read
// from the current statement, so the answer holds for edges whose source
// no edit has touched since the edge was derived.
func (g *Graph) isArrayEdge(d *Dependence) bool {
	if d.Src == g.Entry {
		return false
	}
	op := d.Src.OperandSlot(d.SrcPos)
	return op != nil && op.Kind == ir.ArrayRef && op.Name == d.Var
}

// sameBounds reports whether two images of a DO head iterate over the same
// values.
func sameBounds(a, b *ir.Stmt) bool {
	return a.Init.Equal(b.Init) && a.Final.Equal(b.Final) && a.Step.Equal(b.Step)
}

// structuralChange reports whether c can alter the CFG shape or loop
// structure, forcing a full recomputation. Inserting, deleting or moving any
// bracket statement changes loop membership or control regions; a modify is
// structural only when it changes the statement kind or renames a DO loop's
// control variable — an LCV rename flips the subscript-test classification
// (index variable vs symbol) for array accesses whose array name the dirty
// set cannot see. In-kind modifies of bracket heads (loop bounds, IF
// operands, DOALL marking) stay incremental; Update dirties the loop body
// for DO heads to cover bound-sensitive direction vectors.
func structuralChange(c ir.Change) bool {
	switch c.Kind {
	case ir.ChangeReset:
		return true
	case ir.ChangeModify:
		if c.Before == nil || c.Before.Kind != c.Stmt.Kind {
			return true
		}
		return c.Stmt.Kind == ir.SDoHead && c.Before.LCV != c.Stmt.LCV
	default:
		return c.Stmt != nil && isBracket(c.Stmt.Kind)
	}
}

// touchLoopBody marks every statement strictly inside head's loop body
// touched and dirties the arrays they access: with new bounds, each array
// pair whose common loops include this one may test differently, and both
// statements of such a pair lie in the body.
func (g *Graph) touchLoopBody(head *ir.Stmt, dirty map[string]bool, touched map[*ir.Stmt]bool) {
	i := g.Prog.Index(head)
	if i < 0 {
		return // deleted by a later change in the batch
	}
	depth := 0
	for _, s := range g.Prog.Stmts()[i:] {
		switch s.Kind {
		case ir.SDoHead:
			depth++
		case ir.SDoEnd:
			depth--
		}
		if depth == 0 {
			return
		}
		touched[s] = true
		addArrayNames(dirty, s)
	}
}

func isBracket(k ir.StmtKind) bool {
	switch k {
	case ir.SDoHead, ir.SDoEnd, ir.SIf, ir.SElse, ir.SEndIf:
		return true
	}
	return false
}

// addStmtNames adds every location name statement s accesses — its
// definition target, every scalar read (subscript variables included), and
// every array operand — to the set.
func addStmtNames(set map[string]bool, s *ir.Stmt) {
	if s == nil {
		return
	}
	addArrayNames(set, s)
	if d, ok := s.Defs(); ok {
		set[d.Name] = true
		for _, sub := range d.Subs {
			for _, v := range sub.Vars() {
				set[v] = true
			}
		}
	}
	for _, u := range s.Uses() {
		switch u.Kind {
		case ir.Var:
			set[u.Name] = true
		case ir.ArrayRef:
			set[u.Name] = true
			for _, sub := range u.Subs {
				for _, v := range sub.Vars() {
					set[v] = true
				}
			}
		}
	}
}

// addArrayNames adds the arrays s references to the set, reading every
// operand slot as the array census does (collectAccesses), a copy's unused
// second source included.
func addArrayNames(set map[string]bool, s *ir.Stmt) {
	for slot := 1; slot <= 3+len(s.Args); slot++ {
		if op := s.OperandSlot(slot); op != nil && op.IsArray() {
			set[op.Name] = true
		}
	}
}
