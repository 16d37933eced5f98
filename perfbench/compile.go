package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// optConfig is one way of running the opt CLI over a program file.
type optConfig struct {
	name string
	args func(s *system) []string
}

var optConfigs = []optConfig{
	{"interp", func(*system) []string { return nil }},
	{"compiled", func(s *system) []string { return []string{"-engine", "compiled", "-native-dir", s.nativeDir} }},
	{"region2", func(*system) []string { return []string{"-region-workers", "2"} }},
}

const optTimeout = 120 * time.Second

type optRun struct {
	wall  time.Duration
	f     *float64 // host factor of the calibrated stretch the run was in
	rssMB float64
	out   string
	err   error
}

type compileResult struct {
	// timed[c][i] holds config c's completed runs of program i.
	timed [][][]optRun
	// rssMB[i] holds program i's interpreted peak resident sets, in MB.
	rssMB     [][]float64
	canonical []string // the accepted optimized MiniF per program
	reps      int
}

// compilePhase runs `opt <config> -opts … -minif FILE` once per program
// file and configuration, one invocation at a time, in rounds: two, so
// that every program is optimized twice under every configuration, and
// more while the budget allows. Every output must be byte-identical to
// the first interpreted one, and that one must pass the oracle. A
// program's invocations in one round form a calibrated stretch.
func compilePhase(s *system, w *workload, progs []program, budget time.Duration, t *tally, or *oracle, cal *calibrator) (*compileResult, error) {
	files := make([]string, len(progs))
	for i, p := range progs {
		files[i] = filepath.Join(s.dir, "programs", fmt.Sprintf("%02d.mf", i))
		if err := os.MkdirAll(filepath.Dir(files[i]), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(files[i], []byte(p.Source), 0o644); err != nil {
			return nil, err
		}
	}
	runs := make([][][]optRun, len(optConfigs))
	for c := range runs {
		runs[c] = make([][]optRun, len(progs))
	}
	start := time.Now()
	var round time.Duration
	res := &compileResult{}
	for rep := 0; rep < 2 || time.Since(start)+round <= budget; rep++ {
		roundStart := time.Now()
		for i := range progs {
			_, err := cal.around(func(f *float64) error {
				for c, cfg := range optConfigs {
					r := runOpt(s, cfg, w.passes, files[i])
					r.f = f
					runs[c][i] = append(runs[c][i], r)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		round = time.Since(roundStart)
		res.reps = rep + 1
	}

	res.timed = make([][][]optRun, len(optConfigs))
	for c := range optConfigs {
		res.timed[c] = make([][]optRun, len(progs))
	}
	res.rssMB = make([][]float64, len(progs))
	for i, p := range progs {
		canon := runs[0][i][0]
		var verdict error
		if canon.err != nil {
			verdict = canon.err
		} else {
			verdict = or.check(p, canon.out)
		}
		res.canonical = append(res.canonical, canon.out)
		for c, cfg := range optConfigs {
			for _, r := range runs[c][i] {
				t.attempt()
				switch {
				case r.err != nil:
					t.fail(fmt.Sprintf("opt %s %s: %v", cfg.name, p.ID, r.err))
					continue
				case verdict != nil:
					t.fail(fmt.Sprintf("opt %s %s: %v", cfg.name, p.ID, verdict))
				case r.out != canon.out:
					t.fail(fmt.Sprintf("opt %s %s: output differs from the first interpreted run", cfg.name, p.ID))
				}
				// Every run that completed is timed, whatever the verdict,
				// so a fix to an output does not change what is averaged.
				res.timed[c][i] = append(res.timed[c][i], r)
				if cfg.name == "interp" {
					res.rssMB[i] = append(res.rssMB[i], r.rssMB)
				}
			}
		}
	}
	return res, nil
}

func runOpt(s *system, cfg optConfig, passes []string, file string) optRun {
	ctx, cancel := context.WithTimeout(context.Background(), optTimeout)
	defer cancel()
	args := append(cfg.args(s), "-opts", strings.Join(passes, ","), "-minif", file)
	cmd := exec.CommandContext(ctx, s.opt, args...)
	cmd.Dir = s.root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	begin := time.Now()
	err := cmd.Run()
	r := optRun{wall: time.Since(begin), out: stdout.String()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("timed out after %v", optTimeout)
		}
		r.err = fmt.Errorf("%v: %s", err, lastLine(stderr.String()))
	}
	return r
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// configMS is the geometric mean over programs of each program's median
// time under config c, in ms at the reference host's speed; valid once
// the calibrator has settled.
func (r *compileResult) configMS(c int) float64 {
	var meds []float64
	for _, runs := range r.timed[c] {
		var xs []float64
		for _, run := range runs {
			xs = append(xs, *run.f*ms(run.wall))
		}
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// raw returns the timed runs' wall times as measured, in ms.
func (r *compileResult) raw() [][][]float64 {
	out := make([][][]float64, len(r.timed))
	for c, progs := range r.timed {
		out[c] = make([][]float64, len(progs))
		for i, runs := range progs {
			for _, run := range runs {
				out[c][i] = append(out[c][i], ms(run.wall))
			}
		}
	}
	return out
}

// peakRSSMB is the median over programs of each program's median peak
// resident set in the interpreted runs: a single run's peak moves with
// the garbage collector's timing, so neither is taken alone.
func (r *compileResult) peakRSSMB() float64 {
	var meds []float64
	for _, xs := range r.rssMB {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return pct(meds, 0.5)
}
