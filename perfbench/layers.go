package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/dep"
	"repro/internal/engine"
	"repro/internal/frontend"
	"repro/internal/interp"
	"repro/internal/nativecache"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/ir"
	"repro/optlib"
)

// allPasses is every pass a workload runs, in a fixed order for reporting.
var allPasses = []string{"CPP", "CTP", "CFO", "DCE", "ICM", "INX", "CRC", "BMP", "PAR", "LUR", "FUS"}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// probe times one call into a layer. With a recorder it also records the
// span and the heap objects the call allocated; without one it only runs
// the call, so the untraced pass measures the same work minus tracing.
type probe struct {
	rec    *recorder
	trace  string
	parent int
}

func (pr probe) call(name string, f func()) (time.Duration, uint64) {
	if pr.rec == nil {
		f()
		return 0, 0
	}
	a0 := heapAllocs()
	start := time.Now()
	f()
	end := time.Now()
	a1 := heapAllocs()
	pr.rec.add(pr.trace, name, pr.parent, start, end)
	return end.Sub(start), a1 - a0
}

type passLayer struct {
	us, allocs, applications float64
}

// layerStats accumulates the traced pass over every program.
type layerStats struct {
	parseUS, parseAllocs       float64
	depUS, depAllocs, depEdges float64
	engine                     map[string]*passLayer
	patternChecks, depChecks   int64
	rollbacks, applications    int64
	dep                        dep.Stats
	regionUS                   map[string]float64
	regionsMax, splitPasses    int
	pipelineUS, pipelineAllocs float64
	printUS, refUS             float64
	buildS, loadMS             float64
	tracedMS, untracedMS       float64
	// fs are the host factors of the programs' calibrated stretches.
	fs []*float64
}

// factor is the median host factor of the programs' stretches, which
// scales every time above to the reference host's speed; valid once the
// calibrator has settled.
func (st *layerStats) factor() float64 {
	var xs []float64
	for _, f := range st.fs {
		xs = append(xs, *f)
	}
	return median(xs)
}

// layerPhase calls each layer's public entry points in-process, once per
// compile-set program: an untraced pass first, then a traced one whose
// spans and allocation counts give the per-layer metrics. Each program's
// outputs must agree across the engine, region and compiled-pipeline
// paths and pass the oracle.
func layerPhase(s *system, w *workload, progs []program, rec *recorder, t *tally, or *oracle, cal *calibrator) (*layerStats, error) {
	st := &layerStats{engine: map[string]*passLayer{}, regionUS: map[string]float64{}}
	for _, name := range allPasses {
		st.engine[name] = &passLayer{}
	}
	if err := nativeProbes(s, rec, st); err != nil {
		return nil, err
	}
	cache, err := nativecache.New(nativecache.Config{Dir: s.nativeDir, ModuleRoot: s.root})
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	art, err := cache.Ensure(context.Background(), nativecache.NewSpecSet(specs.Sources), nativecache.ModeAuto)
	if err != nil {
		return nil, fmt.Errorf("loading the compiled artifact in-process: %w", err)
	}
	if art.Mode() != "plugin" {
		return nil, fmt.Errorf("compiled artifact loaded as %s, not plugin", art.Mode())
	}
	var passes []optlib.NamedApply
	for _, name := range w.passes {
		fn, ok := art.Func(name)
		if !ok {
			return nil, fmt.Errorf("compiled artifact lacks %s", name)
		}
		passes = append(passes, optlib.NamedApply{Name: name, Apply: fn, ParallelSafe: specs.RegionSafe(name)})
	}
	// A discarded warm-up run, then each program untraced and traced back
	// to back, so both sides see the same cache and heap state.
	if len(progs) > 0 {
		programLayers(progs[0], w, passes, nil, st, or)
	}
	for _, p := range progs {
		var err error
		f, cerr := cal.around(func(*float64) error {
			start := time.Now()
			err = programLayers(p, w, passes, nil, st, or)
			st.untracedMS += ms(time.Since(start))
			start = time.Now()
			if terr := programLayers(p, w, passes, rec, st, or); err == nil {
				err = terr
			}
			st.tracedMS += ms(time.Since(start))
			return nil
		})
		if cerr != nil {
			return nil, cerr
		}
		st.fs = append(st.fs, f)
		t.attempt()
		if err != nil {
			t.fail(err.Error())
		}
	}
	return st, nil
}

func programLayers(p program, w *workload, passes []optlib.NamedApply, rec *recorder, st *layerStats, or *oracle) error {
	ctx := context.Background()
	root := rec.open(p.ID, "program", 0, time.Now())
	defer func() { rec.close(root, time.Now()) }()
	pr := probe{rec: rec, trace: p.ID, parent: root}
	add := func(dst *float64, v float64) {
		if rec != nil {
			*dst += v
		}
	}

	var prog *ir.Program
	var err error
	d, a := pr.call("frontend.parse", func() { prog, err = frontend.Parse(p.Source) })
	if err != nil {
		return fmt.Errorf("%s: parse: %w", p.ID, err)
	}
	add(&st.parseUS, us(d))
	add(&st.parseAllocs, float64(a))

	for _, name := range w.passes {
		var g *dep.Graph
		d, a := pr.call("dep.compute", func() { g = dep.Compute(prog) })
		add(&st.depUS, us(d))
		add(&st.depAllocs, float64(a))
		add(&st.depEdges, float64(len(g.Deps)))
		var ps obs.PassStats
		o, err := specs.Compile(name, engine.WithPassStats(func(s obs.PassStats) { ps = s }))
		if err != nil {
			return err
		}
		d, a = pr.call("engine."+name, func() { _, err = o.ApplyAllCtx(ctx, prog) })
		if err != nil {
			return fmt.Errorf("%s: %s: %w", p.ID, name, err)
		}
		if rec != nil {
			e := st.engine[name]
			e.us += us(d)
			e.allocs += float64(a)
			e.applications += float64(ps.Applications)
			st.applications += int64(ps.Applications)
			st.patternChecks += ps.PatternChecks
			st.depChecks += ps.DepChecks
			st.rollbacks += ps.Rollbacks
			st.dep = st.dep.Add(dep.Stats{ScalarLookups: ps.ScalarLookups, ArrayLookups: ps.ArrayLookups,
				ControlLookups: ps.ControlLookups, IncrementalUpdates: ps.IncrementalUpdates,
				StructuralRebuilds: ps.StructuralRebuilds})
		}
	}
	var text string
	d, _ = pr.call("ir.print", func() { text = ir.ToMiniF(prog) })
	add(&st.printUS, us(d))

	regionProg, err := frontend.Parse(p.Source)
	if err != nil {
		return err
	}
	for _, name := range w.passes {
		o, err := specs.Compile(name)
		if err != nil {
			return err
		}
		var rep engine.RegionReport
		d, _ := pr.call("region."+name, func() { _, rep, err = o.ApplyAllRegions(ctx, regionProg, 2) })
		if err != nil {
			return fmt.Errorf("%s: region %s: %w", p.ID, name, err)
		}
		if rec != nil {
			st.regionUS[name] += us(d)
			st.regionsMax = max(st.regionsMax, rep.Regions)
			if rep.Regions >= 2 {
				st.splitPasses++
			}
		}
	}
	if ir.ToMiniF(regionProg) != text {
		return fmt.Errorf("%s: region-parallel output differs from the sequential engine's", p.ID)
	}

	pipeProg, err := frontend.Parse(p.Source)
	if err != nil {
		return err
	}
	d, a = pr.call("optlib.pipeline", func() { _, err = optlib.PipelineCtx(ctx, pipeProg, passes, optlib.Limits{}) })
	if err != nil {
		return fmt.Errorf("%s: compiled pipeline: %w", p.ID, err)
	}
	add(&st.pipelineUS, us(d))
	add(&st.pipelineAllocs, float64(a))
	if ir.ToMiniF(pipeProg) != text {
		return fmt.Errorf("%s: compiled pipeline output differs from the interpreted engine's", p.ID)
	}

	refProg, err := frontend.Parse(p.Source)
	if err != nil {
		return err
	}
	d, _ = pr.call("interp.ref", func() { _, err = interp.Run(refProg, p.Input, interp.Config{}) })
	if err != nil {
		return fmt.Errorf("%s: reference run: %w", p.ID, err)
	}
	add(&st.refUS, us(d))
	return or.check(p, text)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// nativeProbes times a cold artifact build and a warm artifact load, each
// in a fresh child process (a plugin can be opened once per process).
func nativeProbes(s *system, rec *recorder, st *layerStats) error {
	dir := filepath.Join(s.dir, "native-probe")
	for i, dst := range []*float64{&st.buildS, &st.loadMS} {
		name := []string{"nativecache.build", "nativecache.load"}[i]
		start := time.Now()
		var out nativeProbeResult
		cmd := exec.Command(os.Args[0], "-root", s.root, "-native-probe", dir)
		cmd.Dir = s.root
		cmd.Stderr = os.Stderr
		data, err := cmd.Output()
		if err == nil {
			err = json.Unmarshal(data, &out)
		}
		if err != nil {
			return fmt.Errorf("%s probe: %w", name, err)
		}
		if out.Mode != "plugin" {
			return fmt.Errorf("%s probe: artifact mode %s, not plugin", name, out.Mode)
		}
		rec.add("nativecache", name, 0, start, time.Now())
		if i == 0 {
			*dst = out.EnsureMS / 1000
		} else {
			*dst = out.EnsureMS
		}
	}
	return nil
}

type nativeProbeResult struct {
	EnsureMS float64 `json:"ensure_ms"`
	Mode     string  `json:"mode"`
}

// runNativeProbe is the child side of nativeProbes: one Ensure of the
// built-in spec set against dir, timed.
func runNativeProbe(root, dir string) error {
	cache, err := nativecache.New(nativecache.Config{Dir: dir, ModuleRoot: root})
	if err != nil {
		return err
	}
	defer cache.Close()
	start := time.Now()
	art, err := cache.Ensure(context.Background(), nativecache.NewSpecSet(specs.Sources), nativecache.ModeAuto)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(nativeProbeResult{EnsureMS: ms(time.Since(start)), Mode: art.Mode()})
}
