package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	genesis "repro"
	"repro/internal/frontend"
	"repro/internal/workloads"
	"repro/ir"
)

// kilSpec is a deliberately wrong specification: it deletes every
// assignment of a constant to a scalar, whether or not the value is used.
const kilSpec = `TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.kind == assign AND Si.opc == assign AND type(Si.opr_1) == var AND type(Si.opr_2) == const;
ACTION
  delete(Si);
`

// TestOracleCatchesSeededMiscompile injects the wrong spec through both
// external entry points the benchmark drives — opt -spec and an optimize
// request's specs — and requires the oracle to reject what comes back,
// while the same programs under a correct pass are accepted.
func TestOracleCatchesSeededMiscompile(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(wd)
	w, err := findWorkload("paper-suite")
	if err != nil {
		t.Fatal(err)
	}
	s, _, _, err := setUp(root, t.TempDir(), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	kil := filepath.Join(s.dir, "KIL.gospel")
	if err := os.WriteFile(kil, []byte(kilSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	newton, err := workloads.Get("newton")
	if err != nil {
		t.Fatal(err)
	}
	progs := []program{}
	for _, src := range []struct{ id, text string }{{"tiny", tinyProgram}, {"newton", newton.Source}} {
		p, err := newProgram(src.id, src.text, nil, "oracle self-test")
		if err != nil {
			t.Fatal(err)
		}
		if src.id == "newton" {
			p.Input = newton.Input
		}
		progs = append(progs, p)
	}
	or := newOracle()
	sv := &server{p: s.optd}
	withKIL := optConfig{"kil", func(*system) []string { return []string{"-spec", kil} }}
	for _, p := range progs {
		file := filepath.Join(s.dir, p.ID+".mf")
		if err := os.WriteFile(file, []byte(p.Source), 0o644); err != nil {
			t.Fatal(err)
		}
		good := runOpt(s, optConfigs[0], []string{"CTP"}, file)
		if good.err != nil {
			t.Fatal(good.err)
		}
		if err := or.check(p, good.out); err != nil {
			t.Errorf("%s: the oracle rejects a correct CTP run: %v", p.ID, err)
		}

		bad := runOpt(s, withKIL, nil, file)
		if bad.err != nil {
			t.Fatal(bad.err)
		}
		if err := or.check(p, bad.out); err == nil {
			t.Errorf("%s: the oracle accepts the KIL output of opt -spec:\n%s", p.ID, bad.out)
		} else {
			t.Logf("opt -spec KIL on %s: %v", p.ID, err)
		}

		body, _ := json.Marshal(map[string]any{"source": p.Source, "opts": []string{},
			"specs": []map[string]string{{"name": "KIL", "text": kilSpec}}})
		var resp optimizeResponse
		if err := sv.post("/v1/optimize", body, 200, &resp); err != nil {
			t.Fatal(err)
		}
		if err := or.check(p, resp.MiniF); err == nil {
			t.Errorf("%s: the oracle accepts the KIL output of an optimize request:\n%s", p.ID, resp.MiniF)
		} else {
			t.Logf("request specs KIL on %s: %v", p.ID, err)
		}
	}
}

// TestRegenerationIsByteStable checks the seeded manifest contract on
// every workload: the same seed yields the same program bytes.
func TestRegenerationIsByteStable(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(wd)
	for _, w := range workloadList {
		in, err := generate(w, root, 7)
		if err != nil {
			t.Fatal(err)
		}
		checked, bad, err := stableCheck(w, root, 7, in, 50)
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) > 0 || checked != len(in.compile)+50 {
			t.Errorf("%s: %d checked, unstable: %v", w.name, checked, bad)
		}
	}
}

// TestExcludedInputsStillFail keeps the exclusion list to open defects:
// every excluded input, optimized in process by its workload's passes,
// must still be rejected by the oracle. When a fix makes one pass, remove
// its entry so that the input returns to its workload.
func TestExcludedInputsStillFail(t *testing.T) {
	optimize := func(src string, passes []string) string {
		prog, err := frontend.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range passes {
			o, err := genesis.BuiltIn(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.ApplyAll(prog); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		return ir.ToMiniF(prog)
	}
	or := newOracle()
	for id := range excludedPrograms {
		w, err := workloads.Get(strings.TrimPrefix(id, "workload/"))
		if err != nil {
			t.Fatal(err)
		}
		p, err := newProgram(id, w.Source, w.Input, "excluded")
		if err != nil {
			t.Fatal(err)
		}
		if err := or.check(p, optimize(p.Source, paperPasses)); err == nil {
			t.Errorf("%s is excluded but the oracle accepts its optimized output: remove the entry", id)
		} else {
			t.Logf("%v", err)
		}
	}
}
