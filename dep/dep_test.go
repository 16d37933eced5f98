package dep

import (
	"testing"

	"repro/internal/frontend"
	"repro/ir"
)

// find returns dependences of kind between statements with the given IDs
// (0 as wildcard).
func find(g *Graph, kind Kind, srcID, dstID int) []Dependence {
	var out []Dependence
	for _, d := range g.Deps {
		if d.Kind != kind {
			continue
		}
		if srcID != 0 && d.Src.ID != srcID {
			continue
		}
		if dstID != 0 && d.Dst.ID != dstID {
			continue
		}
		out = append(out, d)
	}
	return out
}

func TestDirSetOps(t *testing.T) {
	if !DirAny.Has(DirLT) || !DirAny.Has(DirEQ) || !DirAny.Has(DirGT) {
		t.Fatal("DirAny must include all")
	}
	if DirLT.Reverse() != DirGT || DirGT.Reverse() != DirLT || DirEQ.Reverse() != DirEQ {
		t.Fatal("Reverse broken")
	}
	if (DirLT | DirEQ).Reverse() != (DirGT | DirEQ) {
		t.Fatal("Reverse of sets broken")
	}
	if DirLT.String() != "<" || DirAny.String() != "*" || (DirLT|DirEQ).String() != "<=" {
		t.Fatal("String broken")
	}
}

func TestVectorMatches(t *testing.T) {
	v := Vector{DirLT, DirGT}
	if !v.Matches(Vector{DirLT, DirGT}) {
		t.Error("exact match")
	}
	if !v.Matches(Vector{DirAny, DirGT}) {
		t.Error("* matches")
	}
	if v.Matches(Vector{DirEQ, DirGT}) {
		t.Error("disjoint element must not match")
	}
	if !v.Matches(Vector{DirLT}) {
		t.Error("short pattern pads with '*' and must match")
	}
	if !v.Matches(nil) {
		t.Error("omitted pattern matches anything")
	}
	if !(Vector{}).Matches(nil) {
		t.Error("empty matches empty")
	}
	// A loop-independent (empty) vector pads with '=': it matches (=) but
	// not (<).
	if !(Vector{}).Matches(Vector{DirEQ}) {
		t.Error("empty vector must match (=)")
	}
	if (Vector{}).Matches(Vector{DirLT}) {
		t.Error("empty vector must not match (<)")
	}
	// A level-1-carried vector does not match a longer all-'=' pattern.
	if (Vector{DirLT}).Matches(Vector{DirEQ, DirEQ}) {
		t.Error("carried vector must not match (=,=)")
	}
}

func TestScalarFlowStraightLine(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y, z
x = 5
y = x + 1
z = x + y
END`)
	g := Compute(p)
	s1, s2, s3 := p.At(0), p.At(1), p.At(2)
	if !g.Exists(Flow, s1, s2, nil) {
		t.Error("x: S1 δ S2 missing")
	}
	if !g.Exists(Flow, s1, s3, nil) {
		t.Error("x: S1 δ S3 missing")
	}
	if !g.Exists(Flow, s2, s3, nil) {
		t.Error("y: S2 δ S3 missing")
	}
	if g.Exists(Flow, s2, s1, nil) || g.Exists(Flow, s3, s1, nil) {
		t.Error("no backward flow deps in straight line")
	}
	// Position of the use: z = x + y uses x at position 2, y at position 3.
	dx := g.Query(Flow, s1, s3, nil)
	if len(dx) != 1 || dx[0].DstPos != 2 {
		t.Errorf("use position of x in S3 = %+v", dx)
	}
	dy := g.Query(Flow, s2, s3, nil)
	if len(dy) != 1 || dy[0].DstPos != 3 {
		t.Errorf("use position of y in S3 = %+v", dy)
	}
}

func TestScalarFlowKilled(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y
x = 1
x = 2
y = x
END`)
	g := Compute(p)
	if g.Exists(Flow, p.At(0), p.At(2), nil) {
		t.Error("killed definition must not reach")
	}
	if !g.Exists(Flow, p.At(1), p.At(2), nil) {
		t.Error("live definition must reach")
	}
	if !g.Exists(Output, p.At(0), p.At(1), nil) {
		t.Error("output dep between the two defs of x missing")
	}
}

func TestScalarAnti(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y
y = x
x = 2
END`)
	g := Compute(p)
	deps := find(g, Anti, p.At(0).ID, p.At(1).ID)
	if len(deps) != 1 {
		t.Fatalf("anti deps = %v", deps)
	}
	if deps[0].Var != "x" || deps[0].SrcPos != 2 {
		t.Errorf("anti dep detail = %+v", deps[0])
	}
}

func TestScalarLoopCarriedReduction(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER i, s
s = 0
DO i = 1, 10
  s = s + 1
ENDDO
PRINT s
END`)
	g := Compute(p)
	body := p.At(2)
	// s = s + 1: carried flow dep onto itself with direction '<'.
	var carried []Dependence
	for _, d := range find(g, Flow, body.ID, body.ID) {
		if d.Carried {
			carried = append(carried, d)
		}
	}
	if len(carried) != 1 {
		t.Fatalf("carried self flow deps = %v", carried)
	}
	if len(carried[0].Vec) != 1 || !carried[0].Vec[0].Has(DirLT) {
		t.Errorf("vector = %v", carried[0].Vec)
	}
	if carried[0].Level != 1 {
		t.Errorf("level = %d", carried[0].Level)
	}
	// Carried self output dep as well.
	foundOut := false
	for _, d := range find(g, Output, body.ID, body.ID) {
		if d.Carried {
			foundOut = true
		}
	}
	if !foundOut {
		t.Error("carried self output dep missing")
	}
}

func TestScalarNotCarriedWhenKilledFirst(t *testing.T) {
	// t is written before it is read in every iteration: the flow dep is
	// loop-independent only; parallelization is blocked by output/anti but
	// no carried flow should be reported.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(10), b(10), t
DO i = 1, 10
  t = a(i)
  b(i) = t
ENDDO
END`)
	g := Compute(p)
	def, use := p.At(1), p.At(2)
	deps := find(g, Flow, def.ID, use.ID)
	for _, d := range deps {
		if d.Carried {
			t.Errorf("spurious carried flow dep: %v", d)
		}
	}
	if len(deps) == 0 {
		t.Fatal("loop-independent flow dep missing")
	}
	if len(deps[0].Vec) != 1 || deps[0].Vec[0] != DirEQ {
		t.Errorf("vector = %v", deps[0].Vec)
	}
}

func TestArrayCarriedFlow(t *testing.T) {
	// a(i) = a(i-1): distance 1 → carried flow with '<'.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(10)
DO i = 2, 10
  a(i) = a(i-1) + 1.0
ENDDO
END`)
	g := Compute(p)
	body := p.At(1)
	deps := find(g, Flow, body.ID, body.ID)
	var carried []Dependence
	for _, d := range deps {
		if d.Carried && d.Var == "a" {
			carried = append(carried, d)
		}
	}
	if len(carried) != 1 {
		t.Fatalf("carried array flow = %v (all: %v)", carried, g.Deps)
	}
	if carried[0].Vec[0] != DirLT {
		t.Errorf("direction = %v, want <", carried[0].Vec)
	}
}

func TestArrayCarriedAnti(t *testing.T) {
	// a(i) = a(i+1): read of next element then write → carried anti.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(10)
DO i = 1, 9
  a(i) = a(i+1)
ENDDO
END`)
	g := Compute(p)
	body := p.At(1)
	var carried []Dependence
	for _, d := range find(g, Anti, body.ID, body.ID) {
		if d.Carried {
			carried = append(carried, d)
		}
	}
	if len(carried) != 1 {
		t.Fatalf("carried anti = %v (all: %v)", carried, g.Deps)
	}
	if carried[0].Vec[0] != DirLT {
		t.Errorf("anti direction = %v", carried[0].Vec)
	}
	// And no carried flow for this pattern.
	for _, d := range find(g, Flow, body.ID, body.ID) {
		if d.Carried {
			t.Errorf("spurious carried flow: %v", d)
		}
	}
}

func TestArrayIndependentIterations(t *testing.T) {
	// a(i) = b(i): fully parallel, no carried deps at all.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(10), b(10)
DO i = 1, 10
  a(i) = b(i)
ENDDO
END`)
	g := Compute(p)
	for _, d := range g.Deps {
		if d.Carried && d.Kind != Control {
			t.Errorf("spurious carried dep: %v", d)
		}
	}
}

func TestArrayZIV(t *testing.T) {
	// a(1) and a(2) never conflict; a(1) and a(1) do.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(10), x
DO i = 1, 10
  a(1) = x
  x = a(2)
ENDDO
a(1) = 0.0
END`)
	g := Compute(p)
	s1 := p.At(1) // a(1) = x
	s2 := p.At(2) // x = a(2)
	s4 := p.At(4) // a(1) = 0.0
	if g.Exists(Flow, s1, s2, nil) && func() bool {
		for _, d := range g.Query(Flow, s1, s2, nil) {
			if d.Var == "a" {
				return true
			}
		}
		return false
	}() {
		t.Error("a(1) → a(2) must not be flow dependent (ZIV disproves)")
	}
	if !g.Exists(Output, s1, s4, nil) {
		t.Error("a(1) written twice: output dep missing")
	}
}

func TestArrayInterchangePreventingDep(t *testing.T) {
	// The paper's INX condition: no flow dep with direction (<,>).
	// a(i,j) = a(i-1,j+1) has exactly that pattern.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i, j
REAL a(20,20)
DO i = 2, 10
  DO j = 1, 9
    a(i,j) = a(i-1,j+1)
  ENDDO
ENDDO
END`)
	g := Compute(p)
	body := p.At(2)
	pattern := Vector{DirLT, DirGT}
	var hit []Dependence
	for _, d := range find(g, Flow, body.ID, body.ID) {
		if d.Var == "a" && d.Vec.Matches(pattern) {
			hit = append(hit, d)
		}
	}
	if len(hit) == 0 {
		t.Fatalf("(<,>) flow dep missing; deps: %v", g.Deps)
	}

	// a(i,j) = a(i-1,j) has (<,=) — interchange legal.
	p2 := frontend.MustParse(`
PROGRAM p
INTEGER i, j
REAL a(20,20)
DO i = 2, 10
  DO j = 1, 10
    a(i,j) = a(i-1,j)
  ENDDO
ENDDO
END`)
	g2 := Compute(p2)
	body2 := p2.At(2)
	for _, d := range find(g2, Flow, body2.ID, body2.ID) {
		if d.Var == "a" && d.Vec.Matches(pattern) {
			t.Errorf("(<,=) dep wrongly matches (<,>): %v", d)
		}
	}
}

func TestArrayGCDDisproof(t *testing.T) {
	// a(2i) = a(2i+1): even vs odd elements never meet (GCD test).
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(30)
DO i = 1, 10
  a(2*i) = a(2*i+1)
ENDDO
END`)
	g := Compute(p)
	for _, d := range g.Deps {
		if d.Var == "a" {
			t.Errorf("GCD should disprove: %v", d)
		}
	}
}

func TestArraySymbolicSubscriptsConservative(t *testing.T) {
	// a(i+k) vs a(i): k symbolic on one side only → assume dependence.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i, k
REAL a(30)
READ k
DO i = 1, 10
  a(i+k) = a(i) + 1.0
ENDDO
END`)
	g := Compute(p)
	found := false
	for _, d := range g.Deps {
		if d.Var == "a" && d.Carried {
			found = true
		}
	}
	if !found {
		t.Error("symbolic subscript must be treated conservatively")
	}
}

func TestControlDeps(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y
READ x
IF (x > 0) THEN
  y = 1
ELSE
  y = 2
ENDIF
DO x = 1, 3
  y = y + 1
ENDDO
END`)
	g := Compute(p)
	ifs := p.At(1)
	then := p.At(2)
	els := p.At(4)
	if !g.Exists(Control, ifs, then, nil) {
		t.Error("THEN branch control dep missing")
	}
	if !g.Exists(Control, ifs, els, nil) {
		t.Error("ELSE branch control dep missing")
	}
	do := p.At(6)
	body := p.At(7)
	if !g.Exists(Control, do, body, nil) {
		t.Error("loop body control dep missing")
	}
	if g.Exists(Control, ifs, p.At(0), nil) {
		t.Error("statement before IF must not be control dependent")
	}
}

func TestLCVFlowIntoBounds(t *testing.T) {
	// Loop headers invariant check of the INX spec: outer LCV feeding the
	// inner loop's bounds must appear as a flow dep L1.head → L2.head.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i, j
REAL a(20,20)
DO i = 1, 10
  DO j = 1, i
    a(i,j) = 0.0
  ENDDO
ENDDO
END`)
	g := Compute(p)
	outer, inner := p.At(0), p.At(1)
	if !g.Exists(Flow, outer, inner, nil) {
		t.Fatal("flow dep from outer head to inner head (triangular bound) missing")
	}

	p2 := frontend.MustParse(`
PROGRAM p
INTEGER i, j
REAL a(20,20)
DO i = 1, 10
  DO j = 1, 10
    a(i,j) = 0.0
  ENDDO
ENDDO
END`)
	g2 := Compute(p2)
	if g2.Exists(Flow, p2.At(0), p2.At(1), nil) {
		t.Fatal("rectangular loop heads must be independent")
	}
}

func TestQueryWildcardsAndPattern(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y
x = 1
y = x
END`)
	g := Compute(p)
	if len(g.Query(Flow, nil, nil, nil)) == 0 {
		t.Error("wildcard query must return deps")
	}
	if len(g.Query(Flow, nil, p.At(1), nil)) != 1 {
		t.Error("dst-anchored query broken")
	}
	if len(g.Query(Flow, p.At(0), nil, nil)) != 1 {
		t.Error("src-anchored query broken")
	}
	if g.Exists(Anti, p.At(0), nil, nil) {
		t.Error("no anti dep expected")
	}
	// A loop-independent dep pads with '=': it matches (=) but not (<).
	if !g.Exists(Flow, p.At(0), p.At(1), Vector{DirEQ}) {
		t.Error("level-0 dep must match a level-1 '=' pattern")
	}
	if g.Exists(Flow, p.At(0), p.At(1), Vector{DirLT}) {
		t.Error("level-0 dep must not match a '<' pattern")
	}
}

func TestDepStringForms(t *testing.T) {
	p := frontend.MustParse("PROGRAM p\nINTEGER x, y\nx = 1\ny = x\nEND")
	g := Compute(p)
	d := g.Query(Flow, p.At(0), p.At(1), nil)[0]
	if d.String() == "" || g.String() == "" {
		t.Error("String must render")
	}
	if got := (Vector{DirLT, DirGT}).String(); got != "(<,>)" {
		t.Errorf("Vector.String = %q", got)
	}
	if got := (Vector{}).String(); got != "()" {
		t.Errorf("empty Vector.String = %q", got)
	}
}

func TestTriangularCarriedDirectionOnInnerLevel(t *testing.T) {
	// a(i,j) = a(i,j-1): carried by the inner loop, (=,<).
	p := frontend.MustParse(`
PROGRAM p
INTEGER i, j
REAL a(20,20)
DO i = 1, 10
  DO j = 2, 10
    a(i,j) = a(i,j-1)
  ENDDO
ENDDO
END`)
	g := Compute(p)
	body := p.At(2)
	var carried []Dependence
	for _, d := range find(g, Flow, body.ID, body.ID) {
		if d.Var == "a" && d.Carried {
			carried = append(carried, d)
		}
	}
	if len(carried) != 1 {
		t.Fatalf("carried deps = %v", carried)
	}
	if carried[0].Level != 2 {
		t.Errorf("level = %d, want 2", carried[0].Level)
	}
	want := Vector{DirEQ, DirLT}
	if !vecEqual(carried[0].Vec, want) {
		t.Errorf("vec = %v, want %v", carried[0].Vec, want)
	}
}

func TestSelfOutputOnScalarAssignOutsideLoop(t *testing.T) {
	p := frontend.MustParse("PROGRAM p\nINTEGER x\nx = 1\nEND")
	g := Compute(p)
	for _, d := range g.Deps {
		if d.Kind == Output {
			t.Errorf("no output dep expected: %v", d)
		}
	}
}

func TestDataflowAccessor(t *testing.T) {
	p := frontend.MustParse("PROGRAM p\nINTEGER x\nx = 1\nPRINT x\nEND")
	g := Compute(p)
	if g.Dataflow() == nil {
		t.Fatal("Dataflow accessor must return the analysis")
	}
	if !g.Dataflow().LiveOutOf(0, "x") {
		t.Error("liveness should be available through the graph")
	}
}

func TestLoopIndependentArrayFlowAcrossLoops(t *testing.T) {
	// Producer loop writes a(i); consumer loop reads a(j): flow dep with
	// empty common-loop vector between the two body statements.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i, j
REAL a(10), b(10)
DO i = 1, 10
  a(i) = 1.0
ENDDO
DO j = 1, 10
  b(j) = a(j)
ENDDO
END`)
	g := Compute(p)
	w := p.At(1)
	r := p.At(4)
	deps := g.Query(Flow, w, r, nil)
	found := false
	for _, d := range deps {
		if d.Var == "a" && len(d.Vec) == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("cross-loop array flow dep missing: %v", g.Deps)
	}
	_ = ir.Loops(p)
}

func vecEqual(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
