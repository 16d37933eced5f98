package main

import (
	"fmt"
	"sync"

	"repro/internal/frontend"
	"repro/internal/interp"
)

// oracle judges optimized programs against the reference interpreter run
// on the unoptimized source: an optimization is correct when the optimized
// program prints what the original prints on the same input. It never
// compares one optimizer run against another to decide correctness.
type oracle struct {
	mu      sync.Mutex
	refs    map[string]*interp.Result // program ID → reference result
	checked map[string]error          // program ID + optimized text → verdict
	// ratios holds, per distinct program, the optimized ÷ original statement
	// count and dynamic operation count of its first accepted output.
	ratios map[string][2]float64
	// checks counts interpretations of distinct optimized outputs.
	checks int
}

func newOracle() *oracle {
	return &oracle{refs: map[string]*interp.Result{}, checked: map[string]error{}, ratios: map[string][2]float64{}}
}

func (o *oracle) reference(p program) (*interp.Result, error) {
	id := p.ID
	if p.origID != "" { // a renamed variant prints what its original prints
		id = p.origID
	}
	o.mu.Lock()
	r, ok := o.refs[id]
	o.mu.Unlock()
	if ok {
		return r, nil
	}
	prog, err := frontend.Parse(p.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: parsing the original: %w", p.ID, err)
	}
	r, err = interp.Run(prog, p.Input, interp.Config{})
	if err != nil {
		return nil, fmt.Errorf("%s: reference run of the original: %w", p.ID, err)
	}
	o.mu.Lock()
	o.refs[id] = r
	o.mu.Unlock()
	return r, nil
}

// check parses the optimized MiniF text of p, runs it on p's input and
// requires the reference output. Each distinct text is interpreted once.
func (o *oracle) check(p program, minif string) error {
	key := p.ID + "\x00" + minif
	o.mu.Lock()
	verdict, seen := o.checked[key]
	o.mu.Unlock()
	if seen {
		return verdict
	}
	verdict = o.judge(p, minif)
	o.mu.Lock()
	o.checked[key] = verdict
	o.checks++
	o.mu.Unlock()
	return verdict
}

func (o *oracle) judge(p program, minif string) error {
	ref, err := o.reference(p)
	if err != nil {
		return err
	}
	prog, err := frontend.Parse(minif)
	if err != nil {
		return fmt.Errorf("%s: optimized output does not parse: %w", p.ID, err)
	}
	got, err := interp.Run(prog, p.Input, interp.Config{})
	if err != nil {
		return fmt.Errorf("%s: optimized program fails to run: %w", p.ID, err)
	}
	if !interp.SameOutput(ref, got) {
		return fmt.Errorf("%s: optimized program prints %v, the original prints %v", p.ID, got.Output, ref.Output)
	}
	// A renamed variant is the same program: it counts once.
	id := p.ID
	if p.origID != "" {
		id = p.origID
	}
	o.mu.Lock()
	if _, ok := o.ratios[id]; !ok {
		o.ratios[id] = [2]float64{float64(len(prog.Stmts())) / float64(p.Stmts),
			float64(got.Counts.Total()) / float64(ref.Counts.Total())}
	}
	o.mu.Unlock()
	return nil
}

// ratioGeomeans returns the geometric means over every program with an
// accepted output of its code-size ratio and its run-cost ratio.
func (o *oracle) ratioGeomeans() (stmts, ops float64) {
	var s, r []float64
	for _, x := range o.ratios {
		s = append(s, x[0])
		r = append(r, x[1])
	}
	return geomean(s), geomean(r)
}
