package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/farm"
	"repro/internal/frontend"
	"repro/internal/workloads"
	"repro/ir"
)

// program is one input program of a workload: its MiniF source, the values
// its READ statements consume, and the manifest entry saying where it came
// from and why it was chosen.
type program struct {
	ID      string     `json:"id"`
	Name    string     `json:"name"` // the PROGRAM name in Source
	Profile string     `json:"profile,omitempty"`
	GenSeed int64      `json:"gen_seed,omitempty"`
	Stmts   int        `json:"stmts"`
	Reason  string     `json:"reason"`
	Input   []ir.Value `json:"input,omitempty"`
	Source  string     `json:"-"`
	// origID and origName name the compile-set program a renamed variant
	// was made from; empty for every other program.
	origID, origName string
}

// profiles is the rotation the generated draws cycle through.
var profiles = []string{"default", "mixed", "aggregation"}

// serveSeedLo..serveSeedHi are the generator seeds of optd-mix's stream of
// programs optd has not seen: consecutive seeds of each profile from a
// start the run's seed draws in the first half. They are disjoint from the
// pools in pools.go, so no program is sent to optd as unseen twice.
const serveSeedLo, serveSeedHi = 401, 2000

// excludedPrograms are the inputs the workloads leave out because the seed
// system gets them wrong: each is an open defect of the system, described
// in README.md, not of the benchmark. With them in, every run of the
// workload would fail on the same defect. TestExcludedInputsStillFail holds
// each entry to still failing the oracle, so the entry that a fix makes
// pass must be removed, which puts the input back into its workload.
var excludedPrograms = map[string]string{
	"workload/trapezoid": "MiniF printing drops the decimal point of whole-valued REAL constants",
	"workload/homotopy":  "MiniF printing drops the decimal point of whole-valued REAL constants",
}

var (
	paperPasses = []string{"CPP", "CTP", "DCE", "ICM", "INX", "CRC", "BMP", "PAR", "LUR", "FUS"}
	largePasses = []string{"CTP", "CFO", "DCE", "FUS", "PAR"}
)

// workload is one input set plus the traffic the benchmark drives with it.
// Every workload goes through the opt CLI (the compile phase) and through
// optd (the serve phase).
type workload struct {
	name   string
	passes []string
	// The serve phase's probe sends one request at a time: probeRounds
	// unseen programs per served program, then probeRepeats repeats of
	// each answered one.
	probeRounds, probeRepeats int
	// served is how many compile-set programs, from the first, the probe
	// and the job burst send to optd as renamed variants; 0 means all.
	served int
	// burst is the number of distinct jobs submitted in the end phase.
	burst int
	// compileSet returns the programs the compile phase runs through opt.
	compileSet func(root string, rng *rand.Rand) ([]program, error)
	// excluded lists the inputs left out of compileSet, with the reason.
	excluded map[string]string
	// fresh returns the i-th unseen program for the probe and the burst. nil means
	// renamed variants of the served programs: same statements, so the
	// same optimization work, under a new PROGRAM name and so a new cache
	// key.
	fresh func(rng *rand.Rand) func(i int) (program, error)
}

var workloadList = []*workload{
	{
		name: "paper-suite", passes: paperPasses, probeRounds: 15, probeRepeats: 2, burst: 840,
		compileSet: paperSuite, excluded: excludedPrograms,
	},
	{
		// optd serves hompack-ish only: the median and tail of a handful of
		// seeded programs would move with the draw far more than with optd.
		name: "large-5pass", passes: largePasses, served: 1, probeRounds: 6, probeRepeats: 50, burst: 10,
		compileSet: largeSet,
	},
	{
		// An open loop at a fixed rate measured mostly the shared host's
		// steal here: latencies moved by a quarter to a third between runs
		// at 20/s and by half at 50/s, however calibrated. The probe sends
		// unseen generated programs one at a time instead.
		name: "optd-mix", passes: paperPasses, probeRounds: 17, probeRepeats: 2, burst: 400,
		compileSet: func(_ string, rng *rand.Rand) ([]program, error) {
			return poolDraw(rng, smallPool, 4, 60, "compile set")
		},
		fresh: func(rng *rand.Rand) func(int) (program, error) {
			return smallStream(rng, "serve stream")
		},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// paperSuite is the ten Section-4 programs, less the excluded ones, plus
// four repository examples. The seed only draws the values the READ
// programs consume.
func paperSuite(root string, rng *rand.Rand) ([]program, error) {
	var out []program
	for _, w := range workloads.All {
		var input []ir.Value
		for _, v := range w.Input {
			// Every READ value is a positive real scale factor; draw one in
			// [0.25, 4) times the program's own default.
			input = append(input, ir.FloatVal(v.AsFloat()*0.25*float64(1+rng.Intn(15))))
		}
		// An excluded program still draws its values, so that the others'
		// do not depend on the list.
		if _, bad := excludedPrograms["workload/"+w.Name]; bad {
			continue
		}
		p, err := newProgram("workload/"+w.Name, w.Source, input, "paper Section 4 program")
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	for _, name := range []string{"demo", "reduce", "stencil", "aggregate"} {
		p, err := fileProgram(root, name, "repository example program")
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// largeSet is hompack-ish plus one seeded 300-statement draw per profile
// from largePool.
func largeSet(root string, rng *rand.Rand) ([]program, error) {
	p, err := fileProgram(root, "hompack-ish", "hand-written 379-statement program")
	if err != nil {
		return nil, err
	}
	draws, err := poolDraw(rng, largePool, 1, 300, "seeded draw")
	return append([]program{p}, draws...), err
}

// poolDraw draws perProfile distinct generator seeds of each profile from
// pool and returns their programs of at most stmts top-level statements,
// rotating profiles.
func poolDraw(rng *rand.Rand, pool map[string][]int64, perProfile, stmts int, what string) ([]program, error) {
	perm := map[string][]int{}
	for _, prof := range profiles {
		perm[prof] = rng.Perm(len(pool[prof]))
	}
	var out []program
	for i := 0; i < perProfile*len(profiles); i++ {
		prof := profiles[i%len(profiles)]
		seed := pool[prof][perm[prof][i/len(profiles)]]
		p, err := genProgram(prof, seed, stmts,
			fmt.Sprintf("%s %d, profile %s, at most %d top-level statements", what, i, prof, stmts))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// smallStream yields seeded 60-statement programs, rotating profiles, from
// the serve seeds. Running past the end of them is an error, never a
// repeat.
func smallStream(rng *rand.Rand, what string) func(int) (program, error) {
	start := rng.Intn((serveSeedHi - serveSeedLo + 1) / 2)
	return func(i int) (program, error) {
		prof := profiles[i%len(profiles)]
		seed := int64(serveSeedLo + start + i/len(profiles))
		if seed > serveSeedHi {
			return program{}, fmt.Errorf("%s: draw %d runs past generator seed %d of profile %s", what, i, serveSeedHi, prof)
		}
		return genProgram(prof, seed, 60,
			fmt.Sprintf("%s draw %d, profile %s, at most 60 top-level statements", what, i, prof))
	}
}

func genProgram(profile string, seed int64, maxStmts int, reason string) (program, error) {
	src, err := farm.SourceFor(profile, seed, maxStmts)
	if err != nil {
		return program{}, err
	}
	p, err := newProgram(fmt.Sprintf("proggen/%s/%d", profile, seed), src, nil, reason)
	p.Profile, p.GenSeed = profile, seed
	return p, err
}

func fileProgram(root, name, reason string) (program, error) {
	src, err := os.ReadFile(filepath.Join(root, "examples", "programs", name+".mf"))
	if err != nil {
		return program{}, err
	}
	return newProgram("examples/"+name, string(src), nil, reason)
}

func newProgram(id, src string, input []ir.Value, reason string) (program, error) {
	p, err := frontend.Parse(src)
	if err != nil {
		return program{}, fmt.Errorf("%s: %w", id, err)
	}
	return program{ID: id, Name: p.Name, Stmts: len(p.Stmts()), Reason: reason, Input: input, Source: src}, nil
}

var programLine = regexp.MustCompile(`(?m)^[ \t]*PROGRAM[ \t]+\w+`)

// variant renames p so that optd has not seen it: the statements, and so
// the optimization work, are unchanged.
func (p program) variant(k int) program {
	v := p
	v.origID, v.origName = p.ID, p.Name
	v.Name = fmt.Sprintf("%sv%d", p.Name, k)
	v.ID = fmt.Sprintf("%s#v%d", p.ID, k)
	done := false
	v.Source = programLine.ReplaceAllStringFunc(p.Source, func(m string) string {
		if done {
			return m
		}
		done = true
		return "PROGRAM " + v.Name
	})
	return v
}

// withName rewrites the PROGRAM line of optimized MiniF output.
func withName(minif, name string) string {
	if i := strings.IndexByte(minif, '\n'); i >= 0 && strings.HasPrefix(minif, "PROGRAM ") {
		return "PROGRAM " + name + minif[i:]
	}
	return minif
}

// inputSet is everything a run feeds the system, generated from the seed.
type inputSet struct {
	compile []program
	// serve is the part of the compile set whose renamed variants are the
	// fresh programs, when the workload draws no fresh programs of its own.
	serve []program
	fresh func(int) (program, error)
}

func generate(w *workload, root string, seed int64) (*inputSet, error) {
	rng := rand.New(rand.NewSource(seed))
	set, err := w.compileSet(root, rng)
	if err != nil {
		return nil, err
	}
	in := &inputSet{compile: set, serve: set}
	if w.served > 0 {
		in.serve = set[:w.served]
	}
	if w.fresh != nil {
		in.fresh = w.fresh(rng)
	} else {
		in.fresh = func(i int) (program, error) {
			return in.serve[i%len(in.serve)].variant(i/len(in.serve) + 1), nil
		}
	}
	return in, nil
}

// stableCheck regenerates the inputs from the same seed and reports every
// program whose source is not byte-identical to the first generation,
// covering the compile set and the first n fresh programs.
func stableCheck(w *workload, root string, seed int64, first *inputSet, n int) (checked int, bad []string, err error) {
	again, err := generate(w, root, seed)
	if err != nil {
		return 0, nil, err
	}
	for i, p := range first.compile {
		checked++
		if again.compile[i].Source != p.Source {
			bad = append(bad, p.ID)
		}
	}
	for i := 0; i < n; i++ {
		a, err1 := first.fresh(i)
		b, err2 := again.fresh(i)
		if err1 != nil || err2 != nil {
			return checked, bad, fmt.Errorf("regenerating fresh program %d: %v %v", i, err1, err2)
		}
		checked++
		if a.Source != b.Source {
			bad = append(bad, a.ID)
		}
	}
	return checked, bad, nil
}
