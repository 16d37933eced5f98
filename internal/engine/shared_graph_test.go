package engine_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dep"
	"repro/internal/engine"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/workloads"
	"repro/ir"
)

// TestSharedGraphMatchesPerPass is the differential for pipelines that hand
// one dependence graph from pass to pass (ApplyAllWith), against the
// per-pass driver that computes a fresh graph at every pass entry
// (ApplyAll). Over every workload and example program, under the paper's
// ten passes and the CTP,CFO,DCE,FUS,PAR pipeline, and in each dependence
// maintenance mode, it requires identical application counts and
// byte-identical MiniF after every pass, a shared graph equal to a fresh
// dep.Compute after every pass, and per-pass OnPassStats lookup deltas
// that sum to the shared graph's totals.
func TestSharedGraphMatchesPerPass(t *testing.T) {
	t.Parallel()
	type program struct {
		name string
		src  string
	}
	var progs []program
	for _, w := range workloads.All {
		progs = append(progs, program{w.Name, w.Source})
	}
	dir := filepath.Join("..", "..", "examples", "programs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".mf") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{e.Name(), string(raw)})
	}
	pipelines := map[string][]string{
		"ten":   specs.Ten,
		"large": {"CTP", "CFO", "DCE", "FUS", "PAR"},
	}
	modes := map[string][]engine.Option{
		"incremental":    nil,
		"full-recompute": {engine.WithoutIncremental()},
		"no-recompute":   {engine.WithoutRecompute()},
	}
	for _, pr := range progs {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			t.Parallel()
			if p := frontend.MustParse(pr.src); testing.Short() && p.Len() > 60 {
				t.Skipf("%d statements, skipped in -short", p.Len())
			}
			for pname, passes := range pipelines {
				for mname, opts := range modes {
					diffSharedGraph(t, pr.name+"/"+pname+"/"+mname, pr.src, passes, opts)
				}
			}
		})
	}
}

func diffSharedGraph(t *testing.T, what, src string, passes []string, opts []engine.Option) {
	t.Helper()
	perPass := frontend.MustParse(src)
	shared := frontend.MustParse(src)
	g := dep.Compute(shared)
	var sum dep.Stats
	for _, name := range passes {
		want, err := specs.MustCompile(name, opts...).ApplyAll(perPass)
		if err != nil {
			t.Fatalf("%s %s per-pass: %v", what, name, err)
		}
		var ps obs.PassStats
		o := specs.MustCompile(name, append(opts, engine.WithPassStats(func(s obs.PassStats) { ps = s }))...)
		got, err := o.ApplyAllWith(context.Background(), shared, g)
		if err != nil {
			t.Fatalf("%s %s shared: %v", what, name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d applications on the shared graph, %d per pass", what, name, len(got), len(want))
		}
		if a, b := ir.ToMiniF(shared), ir.ToMiniF(perPass); a != b {
			t.Fatalf("%s %s: programs differ\nshared graph:\n%s\nper pass:\n%s", what, name, a, b)
		}
		if a, b := g.String(), dep.Compute(shared).String(); a != b {
			t.Fatalf("%s %s: shared graph is not the program's graph\nshared:\n%s\nfresh:\n%s", what, name, a, b)
		}
		sum = sum.Add(dep.Stats{
			ScalarLookups:      ps.ScalarLookups,
			ArrayLookups:       ps.ArrayLookups,
			ControlLookups:     ps.ControlLookups,
			IncrementalUpdates: ps.IncrementalUpdates,
			StructuralRebuilds: ps.StructuralRebuilds,
		})
	}
	if total := g.Stats(); sum != total {
		t.Errorf("%s: per-pass stats sum to %+v, the shared graph counted %+v", what, sum, total)
	}
}
