package dep_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/dep"
	"repro/internal/farm"
	"repro/internal/proggen"
	"repro/ir"
)

// mutNames are the scalar names proggen declares; random modifications draw
// replacement operands from this pool.
var mutNames = []string{"n", "m", "p", "x", "y", "z", "w"}

// swapArrays pairs proggen's same-rank arrays, so a swapped reference keeps
// its subscript count.
var swapArrays = map[string]string{"a": "b", "b": "a"}

func assignStmts(p *ir.Program) []*ir.Stmt {
	return stmtsOfKind(p, ir.SAssign)
}

func stmtsOfKind(p *ir.Program, k ir.StmtKind) []*ir.Stmt {
	var out []*ir.Stmt
	for _, s := range p.Stmts() {
		if s.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// arrayOperands returns the array-reference operand slots of every assign.
func arrayOperands(p *ir.Program) []*ir.Operand {
	var out []*ir.Operand
	for _, s := range assignStmts(p) {
		for _, op := range []*ir.Operand{&s.Dst, &s.A, &s.B} {
			if op.IsArray() {
				out = append(out, op)
			}
		}
	}
	return out
}

// arrayStmts returns the assigns that access an array.
func arrayStmts(p *ir.Program) []*ir.Stmt {
	var out []*ir.Stmt
	for _, s := range assignStmts(p) {
		if s.Dst.IsArray() || s.A.IsArray() || s.B.IsArray() {
			out = append(out, s)
		}
	}
	return out
}

// randSub draws an affine subscript: a constant, or an LCV of some loop of
// the program plus a small offset (the LCV need not enclose the access —
// outside its loop it is an ordinary symbol to the subscript tests).
func randSub(r *rand.Rand, p *ir.Program) ir.LinExpr {
	dos := stmtsOfKind(p, ir.SDoHead)
	if len(dos) == 0 || r.Intn(3) == 0 {
		return ir.ConstExpr(int64(r.Intn(12) + 1))
	}
	lcv := dos[r.Intn(len(dos))].LCV
	return ir.VarExpr(lcv).Add(ir.ConstExpr(int64(r.Intn(5) - 2)))
}

// stmtOwner finds the statement holding operand slot op.
func stmtOwner(p *ir.Program, op *ir.Operand) *ir.Stmt {
	for _, s := range assignStmts(p) {
		if op == &s.Dst || op == &s.A || op == &s.B {
			return s
		}
	}
	return nil
}

// mutate applies one random engine primitive to p and names it: modify,
// insert, delete or move of a straight-line statement — scalar and array
// accesses alike, moves into and out of loop bodies included — in-kind
// modifies of IF and DO heads (loop bounds around array accesses), and
// subscript or array-name rewrites of array references. Every mutation goes
// through the journaling entry points, exactly as the generated action
// executors do.
func mutate(r *rand.Rand, p *ir.Program) string {
	as := assignStmts(p)
	if len(as) == 0 {
		return "none"
	}
	s := as[r.Intn(len(as))]
	scalarModify := func() string {
		ir.NoteModify(s)
		s.A = ir.VarOp(mutNames[r.Intn(len(mutNames))])
		return fmt.Sprintf("modify S%d operand", s.ID)
	}
	switch r.Intn(13) {
	case 0: // modify a source operand
		return scalarModify()
	case 1: // modify the destination
		ir.NoteModify(s)
		s.Dst = ir.VarOp(mutNames[r.Intn(len(mutNames))])
		return fmt.Sprintf("modify S%d destination", s.ID)
	case 2: // insert a copy at a random position
		c := p.InsertAt(r.Intn(p.Len()+1), ir.CloneStmt(s))
		return fmt.Sprintf("insert S%d copy of S%d", c.ID, s.ID)
	case 3: // delete, keeping enough material for later steps
		if len(as) > 4 {
			p.Delete(s)
			return fmt.Sprintf("delete S%d", s.ID)
		}
		return scalarModify()
	case 4: // move after a random anchor (nil = front)
		var after *ir.Stmt
		if j := r.Intn(p.Len() + 1); j > 0 {
			after = p.Stmts()[j-1]
		}
		if after != s {
			p.Move(s, after)
		}
		return fmt.Sprintf("move S%d", s.ID)
	case 5: // IF-head operand modify — in-kind bracket edit, incremental
		if ifs := stmtsOfKind(p, ir.SIf); len(ifs) > 0 {
			c := ifs[r.Intn(len(ifs))]
			ir.NoteModify(c)
			c.A = ir.VarOp(mutNames[r.Intn(len(mutNames))])
			return fmt.Sprintf("modify IF S%d", c.ID)
		}
		return scalarModify()
	case 6: // DO-head bound modify — the loop-bounds incremental rule
		if dos := stmtsOfKind(p, ir.SDoHead); len(dos) > 0 {
			c := dos[r.Intn(len(dos))]
			ir.NoteModify(c)
			switch r.Intn(3) {
			case 0:
				c.Final = ir.IntOp(int64(r.Intn(6) + 2))
			case 1:
				c.Init = ir.IntOp(int64(r.Intn(4)))
			default:
				c.Final = ir.VarOp(mutNames[r.Intn(len(mutNames))])
			}
			return fmt.Sprintf("modify DO S%d bounds", c.ID)
		}
		return scalarModify()
	case 7: // DOALL marking — an in-kind DO-head edit with unchanged bounds
		if dos := stmtsOfKind(p, ir.SDoHead); len(dos) > 0 {
			c := dos[r.Intn(len(dos))]
			ir.NoteModify(c)
			c.Parallel = !c.Parallel
			return fmt.Sprintf("mark DO S%d", c.ID)
		}
		return scalarModify()
	case 8: // rewrite one subscript of an array reference
		if ops := arrayOperands(p); len(ops) > 0 {
			op := ops[r.Intn(len(ops))]
			owner := stmtOwner(p, op)
			ir.NoteModify(owner)
			subs := append([]ir.LinExpr(nil), op.Subs...)
			subs[r.Intn(len(subs))] = randSub(r, p)
			*op = ir.ArrayOp(op.Name, subs...)
			return fmt.Sprintf("modify S%d subscript", owner.ID)
		}
		return scalarModify()
	case 9: // point an array reference at another array of the same rank
		for _, op := range arrayOperands(p) {
			if other, ok := swapArrays[op.Name]; ok && r.Intn(2) == 0 {
				owner := stmtOwner(p, op)
				ir.NoteModify(owner)
				*op = ir.ArrayOp(other, op.Clone().Subs...)
				return fmt.Sprintf("swap S%d array", owner.ID)
			}
		}
		return scalarModify()
	case 10: // insert or delete an array access
		arr := arrayStmts(p)
		if len(arr) == 0 {
			return scalarModify()
		}
		a := arr[r.Intn(len(arr))]
		if r.Intn(2) == 0 && len(as) > 4 {
			p.Delete(a)
			return fmt.Sprintf("delete array S%d", a.ID)
		}
		c := p.InsertAt(r.Intn(p.Len()+1), ir.CloneStmt(a))
		return fmt.Sprintf("insert S%d copy of array S%d", c.ID, a.ID)
	case 11: // move an array access into a loop body or out past a loop
		arr := arrayStmts(p)
		dos := stmtsOfKind(p, ir.SDoHead)
		ends := stmtsOfKind(p, ir.SDoEnd)
		if len(arr) == 0 || len(dos) == 0 {
			return scalarModify()
		}
		a := arr[r.Intn(len(arr))]
		after := dos[r.Intn(len(dos))]
		if r.Intn(2) == 0 {
			after = ends[r.Intn(len(ends))]
		}
		p.Move(a, after)
		return fmt.Sprintf("move array S%d after S%d", a.ID, after.ID)
	default: // two random edits journaled into one Update batch
		msg := mutate(r, p)
		return msg + "; " + mutate(r, p)
	}
}

// TestUpdateMatchesCompute is the differential property test for incremental
// dependence maintenance: after every primitive mutation of a generated
// program, Graph.Update driven by the change journal must produce a graph
// identical — edges and canonical order both — to a fresh Compute. It runs
// over the farm's default, mixed and aggregation programs, so array
// accesses inside loop nests are well represented.
func TestUpdateMatchesCompute(t *testing.T) {
	for _, profile := range []string{"default", "mixed", "aggregation"} {
		for seed := int64(1); seed <= 8; seed++ {
			p := proggen.Generate(seed, proggen.Config{Profile: farm.Profiles[profile]})
			log, owned := p.EnsureLog()
			if !owned {
				t.Fatalf("%s seed %d: fresh program already had a journal", profile, seed)
			}
			g := dep.Compute(p)
			r := rand.New(rand.NewSource(seed * 7919))
			for step := 0; step < 40; step++ {
				what := mutate(r, p)
				g.Update(log.Changes())
				log.Reset()
				want := dep.Compute(p).String()
				if got := g.String(); got != want {
					t.Fatalf("%s seed %d step %d (%s): incremental graph diverged\nprogram:\n%s\nincremental:\n%s\nfresh:\n%s",
						profile, seed, step, what, p, got, want)
				}
			}
		}
	}
}

// TestUpdateStructuralFallback pins the structural-change contract: CFG- or
// loop-shape edits force a full recompute (Update returns false), while
// straight-line edits and in-kind bracket-head modifies — loop bounds
// included — stay on the incremental path (true).
func TestUpdateStructuralFallback(t *testing.T) {
	b := ir.NewBuilder("structural")
	b.Declare("n", false).Declare("x", true)
	b.Copy(ir.VarOp("n"), ir.IntOp(4))
	do := b.Do("i", ir.IntOp(1), ir.VarOp("n"))
	body := b.Assign(ir.VarOp("x"), ir.VarOp("x"), ir.OpAdd, ir.VarOp("x"))
	b.EndDo()
	b.Print(ir.VarOp("x"))
	p := b.P
	log, _ := p.EnsureLog()
	g := dep.Compute(p)

	check := func(what string, wantIncremental bool) {
		t.Helper()
		if got := g.Update(log.Changes()); got != wantIncremental {
			t.Errorf("%s: incremental = %t, want %t", what, got, wantIncremental)
		}
		log.Reset()
		if want := dep.Compute(p).String(); g.String() != want {
			t.Errorf("%s: graph diverged\ngot:\n%s\nwant:\n%s", what, g, want)
		}
	}

	ir.NoteModify(body)
	body.A = ir.VarOp("n")
	check("straight-line modify", true)

	ir.NoteModify(do)
	do.Final = ir.IntOp(6)
	check("DO-head bound modify", true)

	ir.NoteModify(do)
	do.Parallel = true
	check("DOALL marking", true)

	ir.NoteModify(do)
	do.LCV = "j"
	body.Dst = ir.VarOp("x") // keep the body well-formed under the rename
	check("LCV rename", false)

	p.Move(body, do)
	check("moving within a loop", true)

	end := p.Stmts()[p.Len()-2]
	if end.Kind != ir.SDoEnd {
		t.Fatalf("expected SDoEnd, got %v", end.Kind)
	}
	p.Delete(body)
	p.Delete(end)
	p.Delete(do)
	check("deleting the loop brackets", false)
}

// TestUndoRestoresProgram checks the cheap-rollback half of the journal:
// unwinding to a mark restores the program text exactly, no matter what
// sequence of primitives ran in between.
func TestUndoRestoresProgram(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := proggen.Generate(seed, proggen.Config{})
		log, _ := p.EnsureLog()
		before := p.String()
		mark := log.Mark()
		r := rand.New(rand.NewSource(seed * 104729))
		for step := 0; step < 25; step++ {
			mutate(r, p)
		}
		log.UndoTo(mark)
		if got := p.String(); got != before {
			t.Fatalf("seed %d: undo did not restore the program\nbefore:\n%s\nafter:\n%s", seed, before, got)
		}
		if log.Len() != mark {
			t.Fatalf("seed %d: journal not truncated to mark: len %d want %d", seed, log.Len(), mark)
		}
	}
}
