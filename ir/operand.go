package ir

import (
	"fmt"
	"sort"
	"strings"
)

// OperandKind discriminates the forms an operand of a quad may take.
type OperandKind int

const (
	// NoOperand marks an absent operand slot (e.g. the third operand of a
	// plain copy "x := y").
	NoOperand OperandKind = iota
	// Const is a numeric literal.
	Const
	// Var is a scalar variable reference.
	Var
	// ArrayRef is an array element reference with affine subscripts.
	ArrayRef
)

func (k OperandKind) String() string {
	switch k {
	case NoOperand:
		return "none"
	case Const:
		return "const"
	case Var:
		return "var"
	case ArrayRef:
		return "array"
	}
	return fmt.Sprintf("OperandKind(%d)", int(k))
}

// Term is one c*v summand of a linear subscript expression.
type Term struct {
	Coef int64
	Var  string
}

// LinExpr is an affine expression c0 + Σ ci*vi over integer scalar
// variables. Array subscripts are kept in this form so the dependence
// analyzer can run ZIV/SIV/GCD subscript tests. The frontend lowers any
// non-affine subscript into a fresh temporary, which appears here as a
// single term with coefficient 1 (and is treated conservatively by the
// dependence tests).
type LinExpr struct {
	Const int64
	Terms []Term
}

// ConstExpr returns the affine expression for a bare constant.
func ConstExpr(c int64) LinExpr { return LinExpr{Const: c} }

// VarExpr returns the affine expression for a bare variable.
func VarExpr(name string) LinExpr { return LinExpr{Terms: []Term{{Coef: 1, Var: name}}} }

// Normalize sorts terms by variable name, merges duplicates and drops zero
// coefficients, producing a canonical form suitable for equality checks.
func (e LinExpr) Normalize() LinExpr {
	if e.normal() {
		return e
	}
	m := make(map[string]int64, len(e.Terms))
	for _, t := range e.Terms {
		m[t.Var] += t.Coef
	}
	names := make([]string, 0, len(m))
	for v, c := range m {
		if c != 0 {
			names = append(names, v)
		}
	}
	sort.Strings(names)
	out := LinExpr{Const: e.Const}
	for _, v := range names {
		out.Terms = append(out.Terms, Term{Coef: m[v], Var: v})
	}
	return out
}

// normal reports whether e is already in canonical form: terms strictly
// ascending by variable, none with a zero coefficient.
func (e LinExpr) normal() bool {
	for i, t := range e.Terms {
		if t.Coef == 0 || (i > 0 && e.Terms[i-1].Var >= t.Var) {
			return false
		}
	}
	return true
}

// Add returns e + o in normalized form.
func (e LinExpr) Add(o LinExpr) LinExpr {
	sum := LinExpr{Const: e.Const + o.Const}
	sum.Terms = append(append([]Term{}, e.Terms...), o.Terms...)
	return sum.Normalize()
}

// Scale returns k*e in normalized form.
func (e LinExpr) Scale(k int64) LinExpr {
	out := LinExpr{Const: e.Const * k}
	for _, t := range e.Terms {
		out.Terms = append(out.Terms, Term{Coef: t.Coef * k, Var: t.Var})
	}
	return out.Normalize()
}

// Sub returns e - o in normalized form.
func (e LinExpr) Sub(o LinExpr) LinExpr { return e.Add(o.Scale(-1)) }

// Coef returns the coefficient of variable v (zero if absent).
func (e LinExpr) Coef(v string) int64 {
	for _, t := range e.Terms {
		if t.Var == v {
			return t.Coef
		}
	}
	return 0
}

// Vars returns the variables referenced by the expression.
func (e LinExpr) Vars() []string {
	out := make([]string, 0, len(e.Terms))
	for _, t := range e.Terms {
		out = append(out, t.Var)
	}
	return out
}

// IsConst reports whether the expression has no variable terms.
func (e LinExpr) IsConst() bool { return len(e.Normalize().Terms) == 0 }

// Equal reports structural equality after normalization.
func (e LinExpr) Equal(o LinExpr) bool {
	a, b := e.Normalize(), o.Normalize()
	if a.Const != b.Const || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return true
}

// Subst replaces variable v with expression repl, returning the normalized
// result. Used by loop transformations (e.g. bumping rewrites i as i-k).
func (e LinExpr) Subst(v string, repl LinExpr) LinExpr {
	out := LinExpr{Const: e.Const}
	for _, t := range e.Terms {
		if t.Var == v {
			out = out.Add(repl.Scale(t.Coef))
		} else {
			out.Terms = append(out.Terms, t)
		}
	}
	return out.Normalize()
}

func (e LinExpr) String() string {
	n := e.Normalize()
	if len(n.Terms) == 0 {
		return fmt.Sprintf("%d", n.Const)
	}
	var b strings.Builder
	for i, t := range n.Terms {
		switch {
		case i == 0 && t.Coef == 1:
			b.WriteString(t.Var)
		case i == 0 && t.Coef == -1:
			b.WriteString("-" + t.Var)
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", t.Coef, t.Var)
		case t.Coef == 1:
			b.WriteString("+" + t.Var)
		case t.Coef == -1:
			b.WriteString("-" + t.Var)
		case t.Coef < 0:
			fmt.Fprintf(&b, "%d*%s", t.Coef, t.Var)
		default:
			fmt.Fprintf(&b, "+%d*%s", t.Coef, t.Var)
		}
	}
	if n.Const > 0 {
		fmt.Fprintf(&b, "+%d", n.Const)
	} else if n.Const < 0 {
		fmt.Fprintf(&b, "%d", n.Const)
	}
	return b.String()
}

// Operand is one slot of a quad: nothing, a constant, a scalar variable, or
// an array element reference.
type Operand struct {
	Kind OperandKind
	Val  Value     // Const
	Name string    // Var, ArrayRef
	Subs []LinExpr // ArrayRef subscripts, one per dimension
}

// None is the absent operand.
func None() Operand { return Operand{} }

// ConstOp returns a constant operand.
func ConstOp(v Value) Operand { return Operand{Kind: Const, Val: v} }

// IntOp returns an integer constant operand.
func IntOp(i int64) Operand { return ConstOp(IntVal(i)) }

// VarOp returns a scalar variable operand.
func VarOp(name string) Operand { return Operand{Kind: Var, Name: name} }

// ArrayOp returns an array reference operand.
func ArrayOp(name string, subs ...LinExpr) Operand {
	return Operand{Kind: ArrayRef, Name: name, Subs: subs}
}

// IsConst reports whether the operand is a constant.
func (o Operand) IsConst() bool { return o.Kind == Const }

// IsVar reports whether the operand is a scalar variable.
func (o Operand) IsVar() bool { return o.Kind == Var }

// IsArray reports whether the operand is an array reference.
func (o Operand) IsArray() bool { return o.Kind == ArrayRef }

// Present reports whether the operand slot is occupied.
func (o Operand) Present() bool { return o.Kind != NoOperand }

// Equal reports structural equality of two operands.
func (o Operand) Equal(p Operand) bool {
	if o.Kind != p.Kind {
		return false
	}
	switch o.Kind {
	case NoOperand:
		return true
	case Const:
		return o.Val.Equal(p.Val)
	case Var:
		return o.Name == p.Name
	case ArrayRef:
		if o.Name != p.Name || len(o.Subs) != len(p.Subs) {
			return false
		}
		for i := range o.Subs {
			if !o.Subs[i].Equal(p.Subs[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Clone returns a deep copy of the operand.
func (o Operand) Clone() Operand {
	c := o
	if len(o.Subs) > 0 {
		c.Subs = make([]LinExpr, len(o.Subs))
		for i, s := range o.Subs {
			c.Subs[i] = LinExpr{Const: s.Const, Terms: append([]Term{}, s.Terms...)}
		}
	}
	return c
}

// VarsRead returns the scalar variables this operand reads when evaluated:
// the variable itself for Var, the subscript variables for ArrayRef.
func (o Operand) VarsRead() []string {
	switch o.Kind {
	case Var:
		return []string{o.Name}
	case ArrayRef:
		var out []string
		for _, s := range o.Subs {
			out = append(out, s.Vars()...)
		}
		return out
	}
	return nil
}

// SubstVar replaces scalar variable v with expression repl inside the
// operand: a Var operand for v becomes... (callers use this only for
// subscript rewriting; substituting into a Var operand is handled by the
// transformation primitives, which replace whole operands).
func (o Operand) SubstVar(v string, repl LinExpr) Operand {
	if o.Kind != ArrayRef {
		return o
	}
	c := o.Clone()
	for i := range c.Subs {
		c.Subs[i] = c.Subs[i].Subst(v, repl)
	}
	return c
}

func (o Operand) String() string {
	switch o.Kind {
	case NoOperand:
		return "_"
	case Const:
		return o.Val.String()
	case Var:
		return o.Name
	case ArrayRef:
		parts := make([]string, len(o.Subs))
		for i, s := range o.Subs {
			parts[i] = s.String()
		}
		return o.Name + "(" + strings.Join(parts, ",") + ")"
	}
	return "?"
}
