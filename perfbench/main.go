// Command perfbench is the repository's benchmark. It builds opt and optd
// from the checkout, drives them from outside — opt once per program file,
// optd over loopback HTTP — and judges every output against the reference
// interpreter run on the unoptimized source. See README.md for the
// workloads, the metrics and what each layer metric should move.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setups is how many times a run sets the system up; setup_s is their
// median.
const setups = 3

func main() {
	var (
		root     = flag.String("root", "", "repository checkout (run.sh passes its working directory)")
		wname    = flag.String("workload", "", "workload name, or all for one row per workload")
		seed     = flag.Int64("seed", 1, "workload seed: every input program and input value derives from it")
		seconds  = flag.Float64("seconds", 20, "time budget of the compile phase, which runs at least two rounds, in seconds")
		traceArg = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		probe    = flag.String("native-probe", "", "child mode: time one compiled-artifact Ensure against this directory")
		calib    = flag.Bool("calibrate", false, "child mode: do the fixed calibration work and exit")
	)
	flag.Parse()
	if *root == "" {
		fail(fmt.Errorf("-root is required"))
	}
	if *calib {
		fmt.Println(calibrate())
		return
	}
	if *probe != "" {
		if err := runNativeProbe(*root, *probe); err != nil {
			fail(err)
		}
		return
	}
	if *wname == "all" {
		if err := runAll(*root, *seed, *seconds); err != nil {
			fail(err)
		}
		return
	}
	w, err := findWorkload(*wname)
	if err != nil {
		fail(err)
	}
	if *traceArg != 0 && *traceArg != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	res, err := run(*root, w, *seed, time.Duration(*seconds*float64(time.Second)), *traceArg == 1)
	if err != nil {
		fail(err)
	}
	res.print(os.Stdout)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	host     string
	order    []string
	notes    map[string]string // metric → sample description
}

func (r *result) set(name, unit string, v float64, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
	if note != "" {
		r.notes[name] = note
	}
}

func (r *result) print(out *os.File) {
	fmt.Fprintf(out, "# host: %s\n", r.host)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(out, "%-12s %-36s %14.4f %-6s %s\n", r.workload, name, m.Value, m.Unit, r.notes[name])
	}
	if r.Attempted > 0 {
		fmt.Fprintf(out, "%-12s %-36s %14.4f %-6s %d of %d operations\n", r.workload, "failed_share",
			float64(r.Failed)/float64(r.Attempted), "1", r.Failed, r.Attempted)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintln(out, string(line))
}

// hostStamp names the machine and toolchain every result was measured on.
func hostStamp() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("nproc=%d cpu=%q go=%s", runtime.NumCPU(), cpu, runtime.Version())
}

// cpuTicks returns the steal and total ticks of the host's processors
// since boot, from the first line of /proc/stat; zeros where it cannot.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func run(root string, w *workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	mode := "e2e"
	if traced {
		mode = "trace"
	}
	dir := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-seed%d-%s-%d", w.name, seed, mode, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	begin := time.Now()
	steal0, total0 := cpuTicks()
	res := &result{Metrics: map[string]metric{}, notes: map[string]string{}, workload: w.name, host: hostStamp()}
	t := &tally{}
	or := newOracle()
	cal := &calibrator{root: root}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}

	// Set up several times and keep the last system running.
	n := setups
	if traced {
		n = 1
	}
	var sys *system
	var in *inputSet
	var rawSetupS []float64
	var setupF []*float64
	for i := 0; i < n; i++ {
		sys.stop()
		var d time.Duration
		f, err := cal.around(func(*float64) (err error) {
			sys, in, d, err = setUp(root, filepath.Join(dir, fmt.Sprintf("setup%d", i)), w, seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		setupF = append(setupF, f)
		rawSetupS = append(rawSetupS, d.Seconds())
	}
	defer cleanUp(dir) // after the deferred stop below
	defer sys.stop()

	phases := map[string]float64{"setup_s": time.Since(begin).Seconds()}
	var st *layerStats
	var cr *compileResult
	var err error
	if traced {
		st, err = layerPhase(sys, w, in.compile, rec, t, or, cal)
	} else {
		cr, err = compilePhase(sys, w, in.compile, budget, t, or, cal)
	}
	if err != nil {
		return nil, err
	}
	phases["compile_s"] = time.Since(begin).Seconds() - phases["setup_s"]
	canonical := map[string]string{}
	if cr != nil {
		for i, p := range in.compile {
			canonical[p.ID] = cr.canonical[i]
		}
	}
	sr, err := servePhase(sys, w, in, rec, t, or, canonical, cal)
	if err != nil {
		return nil, err
	}

	// Every time below is at the reference host's speed (see calib.go).
	if traced {
		st.report(res, len(in.compile))
		sr.reportLayers(res)
	} else {
		var setupS []float64
		for i, f := range setupF {
			setupS = append(setupS, *f*rawSetupS[i])
		}
		res.set("setup_s", "s", median(setupS), fmt.Sprintf("median of %d set-ups", len(setupS)))
		for c, name := range []string{"opt_interp_ms", "opt_compiled_ms", "opt_region2_ms"} {
			res.set(name, "ms", cr.configMS(c), fmt.Sprintf("geomean of per-program medians, %d programs, %d rounds",
				len(in.compile), cr.reps))
		}
		res.set("opt_peak_rss_mb", "MB", cr.peakRSSMB(), "median over programs of the median interpreted peak RSS")
		res.set("cold_ms_p50", "ms", sr.coldP50, fmt.Sprintf("%d cold requests", len(sr.coldMS)))
		res.set("cold_ms_p95", "ms", sr.coldP95, fmt.Sprintf("%d cold requests", len(sr.coldMS)))
		res.set("hit_ms_p50", "ms", sr.hitP50, fmt.Sprintf("%d repeats", len(sr.hitMS)))
		stmts, ops := or.ratioGeomeans()
		res.set("optimized_stmts_ratio", "1", stmts, fmt.Sprintf("geomean of optimized/original statement counts over %d programs", len(or.ratios)))
		res.set("run_ops_ratio", "1", ops, "geomean of optimized/original interp.Counts.Total")
		res.set("jobs_per_s", "1/s", sr.jobsPerS, fmt.Sprintf("median of %d burst parts of %d jobs", burstParts, w.burst/burstParts))
		res.set("optd_peak_rss_mb", "MB", sr.optdPeakRSSMB, "optd VmHWM at the end of the run")
	}
	// The share of processor time the hypervisor gave to other machines
	// during the run: the noise the calibration has to absorb.
	steal1, total1 := cpuTicks()
	res.host += fmt.Sprintf(" steal=%.1f%% calibration=%.2fms (median of %d, reference %.1fms)",
		100*float64(steal1-steal0)/float64(max(total1-total0, 1)), median(cal.times()), len(cal.marks), refCalibMS)

	// Regenerate every input from the seed and require identical bytes.
	checked, bad, err := stableCheck(w, root, seed, in, sr.freshUsed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < checked; i++ {
		t.attempt()
	}
	for _, id := range bad {
		t.fail("regenerating " + id + " from the seed gave different bytes")
	}
	if err := writeManifest(filepath.Join(dir, "manifest.json"), w, seed, in, sr.freshUsed); err != nil {
		return nil, err
	}
	if traced {
		if err := rec.write(filepath.Join(dir, "spans.json")); err != nil {
			return nil, err
		}
		if err := writeSelfTimes(filepath.Join(dir, "self_times.json"), rec, st.factor()); err != nil {
			return nil, err
		}
	}

	res.Attempted, res.Failed = t.attempted, t.failed
	if or.checks == 0 {
		t.reasons = append(t.reasons, "the oracle checked nothing")
		res.Failed++
	}
	for _, name := range res.order {
		if v := res.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			res.Metrics[name] = metric{Value: 0, Unit: res.Metrics[name].Unit}
			t.reasons = append(t.reasons, name+" has no samples")
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	for _, r := range t.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", r)
	}
	// The samples behind the figures, for anyone checking one: set-up and
	// opt times as measured, the calibration marks, the scaled latencies.
	samples := map[string]any{"raw_setup_s": rawSetupS, "calibration_ms": cal.times(), "cold_ms": sr.coldMS, "hit_ms": sr.hitMS, "job_rates": sr.jobRates}
	if cr != nil {
		samples["raw_opt_ms"] = cr.raw()
	}
	data, _ := json.MarshalIndent(map[string]any{"workload": w.name, "seed": seed, "host": res.host, "traced": traced,
		"result": res, "notes": res.notes, "samples": samples, "elapsed_s": phases, "total_s": time.Since(begin).Seconds()}, "", " ")
	if err := os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

func writeManifest(path string, w *workload, seed int64, in *inputSet, fresh int) error {
	progs := append([]program(nil), in.compile...)
	for i := 0; i < fresh; i++ {
		p, err := in.fresh(i)
		if err != nil {
			return err
		}
		progs = append(progs, p)
	}
	data, err := json.MarshalIndent(map[string]any{"workload": w.name, "seed": seed, "compile_set": len(in.compile), "programs": progs,
		"excluded": w.excluded}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeSelfTimes writes each span name's self time in ms, at the
// reference host's speed (f is the run's host factor).
func writeSelfTimes(path string, rec *recorder, f float64) error {
	out := map[string]float64{}
	for name, d := range rec.selfTimes() {
		out[name] = f * ms(d)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runAll runs every workload untraced, each in its own process, and prints
// one row per workload.
func runAll(root string, seed int64, seconds float64) error {
	var header []string
	for _, w := range workloadList {
		cmd := exec.Command(os.Args[0], "-root", root, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if header == nil {
			fmt.Println(lines[0])
			for _, m := range endToEnd {
				header = append(header, fmt.Sprintf("%s[%s]", m, r.Metrics[m].Unit))
			}
			fmt.Printf("%-12s %s failed_share\n", "workload", strings.Join(header, " "))
		}
		row := []string{fmt.Sprintf("%-12s", w.name)}
		for _, m := range endToEnd {
			row = append(row, fmt.Sprintf("%.4f", r.Metrics[m].Value))
		}
		row = append(row, fmt.Sprintf("%.4f", float64(r.Failed)/float64(max(r.Attempted, 1))))
		fmt.Println(strings.Join(row, " "))
	}
	return nil
}

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []string{"setup_s", "opt_interp_ms", "opt_compiled_ms", "opt_region2_ms", "opt_peak_rss_mb",
	"optimized_stmts_ratio", "run_ops_ratio", "cold_ms_p50", "cold_ms_p95", "hit_ms_p50", "jobs_per_s", "optd_peak_rss_mb"}

// cleanUp removes the bulky products of a run — binaries, artifacts, job
// WALs and program files — and keeps the records: manifest, result, spans
// and optd's log.
func cleanUp(dir string) {
	for _, pattern := range []string{"setup*/bin", "setup*/native", "setup*/native-probe", "setup*/jobs", "setup*/programs"} {
		matches, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, m := range matches {
			os.RemoveAll(m)
		}
	}
}
