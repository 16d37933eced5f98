package dep

import "repro/ir"

// loopTable caches the loop and control nesting of every statement of one
// program snapshot, built with two linear scans. It replaces the per-pair
// ir.CommonLoops calls (each of which rescanned the whole program) on the
// dependence construction hot path.
type loopTable struct {
	// enclosing[i] lists the DO loops strictly containing statement i,
	// outermost first.
	enclosing [][]ir.Loop
	// ctrlHeads[i] lists the SIf/SDoHead statements whose region strictly
	// contains statement i, outermost first.
	ctrlHeads [][]*ir.Stmt
}

func buildLoopTable(p *ir.Program) *loopTable {
	n := p.Len()
	t := &loopTable{
		enclosing: make([][]ir.Loop, n),
		ctrlHeads: make([][]*ir.Stmt, n),
	}

	// Pass 1: match every DO head with its ENDDO.
	ends := make(map[*ir.Stmt]*ir.Stmt)
	var headStack []*ir.Stmt
	for i := 0; i < n; i++ {
		s := p.At(i)
		switch s.Kind {
		case ir.SDoHead:
			headStack = append(headStack, s)
		case ir.SDoEnd:
			if len(headStack) > 0 {
				ends[headStack[len(headStack)-1]] = s
				headStack = headStack[:len(headStack)-1]
			}
		}
	}

	// Pass 2: record the open loop and control stacks at each statement.
	// A head/end statement is not inside its own region, matching
	// ir.EnclosingLoops and the control-dependence rule. Each stack is
	// snapshotted only when a bracket changes it; the statements between
	// two brackets share one read-only snapshot.
	var loops []ir.Loop
	var ctrl []*ir.Stmt
	var loopSnap []ir.Loop
	var ctrlSnap []*ir.Stmt
	for i := 0; i < n; i++ {
		s := p.At(i)
		switch s.Kind {
		case ir.SDoEnd:
			if len(loops) > 0 {
				loops = loops[:len(loops)-1]
				loopSnap = nil
			}
			if len(ctrl) > 0 {
				ctrl = ctrl[:len(ctrl)-1]
				ctrlSnap = nil
			}
		case ir.SEndIf:
			if len(ctrl) > 0 {
				ctrl = ctrl[:len(ctrl)-1]
				ctrlSnap = nil
			}
		}
		if loopSnap == nil && len(loops) > 0 {
			loopSnap = append([]ir.Loop(nil), loops...)
		}
		if ctrlSnap == nil && len(ctrl) > 0 {
			ctrlSnap = append([]*ir.Stmt(nil), ctrl...)
		}
		t.enclosing[i] = loopSnap
		t.ctrlHeads[i] = ctrlSnap
		switch s.Kind {
		case ir.SDoHead:
			if end, ok := ends[s]; ok {
				loops = append(loops, ir.Loop{Head: s, End: end})
				ctrl = append(ctrl, s)
				loopSnap, ctrlSnap = nil, nil
			}
		case ir.SIf:
			ctrl = append(ctrl, s)
			ctrlSnap = nil
		}
	}
	return t
}

// at returns the loops enclosing statement index i, outermost first.
func (t *loopTable) at(i int) []ir.Loop {
	if i < 0 || i >= len(t.enclosing) {
		return nil
	}
	return t.enclosing[i]
}

// common returns the loops enclosing both statement indices, outermost
// first. In a structured program the enclosing-loop lists of two statements
// share their common loops as a prefix.
func (t *loopTable) common(ai, bi int) []ir.Loop {
	a, b := t.at(ai), t.at(bi)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	k := 0
	for k < n && a[k].Head == b[k].Head {
		k++
	}
	return a[:k]
}
