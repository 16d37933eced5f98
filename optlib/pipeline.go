package optlib

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/dep"
	"repro/internal/frontend"
	"repro/internal/region"
	"repro/ir"
)

// ParseMiniF parses MiniF source into a program. It exists so generated
// optimizer binaries — which live in their own module and therefore cannot
// import repro's internal packages — can still read programs through the
// public optlib surface.
func ParseMiniF(src string) (*ir.Program, error) {
	return frontend.Parse(src)
}

// NamedApply pairs a generated optimizer's ApplyFunc with its spec name for
// pipeline reporting.
type NamedApply struct {
	Name  string
	Apply ApplyFunc
	// ParallelSafe marks the pass as region-eligible: its specification
	// passed region.EligibleSpec, so running it region-at-a-time over a
	// dependence-disjoint partition produces exactly the whole-program
	// result. Leave false (the default) for passes of unknown provenance —
	// they still run correctly, just without the region fast path.
	ParallelSafe bool
}

// PassCount reports one pipeline pass: how many applications it performed
// and how long its fixpoint ran.
type PassCount struct {
	Name         string
	Applications int
	Duration     time.Duration
}

// Pipeline runs PipelineCtx under context.Background.
func Pipeline(p *ir.Program, passes []NamedApply, lim Limits) ([]PassCount, error) {
	return PipelineCtx(context.Background(), p, passes, lim)
}

// PipelineCtx runs a sequence of generated optimizers over one program,
// each to fixpoint, sharing a single dependence graph across the whole
// pipeline: the graph is computed once up front and maintained
// incrementally from the change journal after every application and across
// pass boundaries. This is the compiled serving fast path — on multi-pass
// pipelines the per-pass dep.Compute that Fixpoint would repeat dominates
// the interpreted path's cost, and eliding it is where most of the
// compiled speedup comes from.
//
// Limits apply per pass (matching the engine's per-pass semantics). On
// error the failing pass is the last entry of the returned slice and the
// error wraps the pass name; counts for completed passes are always
// returned. FullRecompute is honored for differential runs.
func PipelineCtx(ctx context.Context, p *ir.Program, passes []NamedApply, lim Limits) ([]PassCount, error) {
	max := lim.MaxIterations
	if max <= 0 {
		max = DefaultMaxIterations
	}
	log, owned := p.EnsureLog()
	if owned {
		defer log.Detach()
	}
	g := dep.Compute(p)
	g.SetWorkers(lim.Parallel)
	counts := make([]PassCount, 0, len(passes))
	for _, pass := range passes {
		begin := time.Now()
		var n int
		var err error
		ran := false
		if lim.Parallel > 1 && pass.ParallelSafe {
			n, ran, err = fixpointRegions(ctx, p, g, pass.Apply, max, owned, lim)
		}
		if !ran && err == nil {
			n, err = fixpointShared(ctx, p, g, pass.Apply, max, owned, lim)
		}
		counts = append(counts, PassCount{Name: pass.Name, Applications: n, Duration: time.Since(begin)})
		if err != nil {
			return counts, fmt.Errorf("%s: %w", pass.Name, err)
		}
	}
	return counts, nil
}

// fixpointRegions runs one ParallelSafe pass region-at-a-time: the program
// is partitioned over the shared graph, each region reaches its own
// fixpoint concurrently on a private sub-program, and the results splice
// back in region order — exactly the sequential outcome, because the
// sequential search visits region 0's application points before region
// 1's. ran=false (with p untouched) asks the caller to run the plain
// sequential fixpoint instead: the program did not partition, a region hit
// the iteration cap (only a whole-program run can decide where the cap
// cuts), or the pass found nothing to do region-locally.
func fixpointRegions(ctx context.Context, p *ir.Program, g *dep.Graph, apply ApplyFunc, max int, owned bool, lim Limits) (int, bool, error) {
	pt := region.Compute(p, g)
	if pt.Len() < 2 {
		return 0, false, nil
	}
	log, _ := p.EnsureLog()
	start := log.Mark()
	sub := lim
	sub.OnEvent = nil // concurrent per-iteration events would race
	out, err := region.Execute(p, pt, lim.Parallel, max, func(i int, sp *ir.Program) (int, error) {
		sg := dep.Compute(sp)
		slog, sowned := sp.EnsureLog()
		if sowned {
			defer slog.Detach()
		}
		return fixpointShared(ctx, sp, sg, apply, max, sowned, sub)
	})
	if err != nil {
		if errors.Is(err, ErrIterationLimit) {
			return 0, false, nil
		}
		return 0, false, err
	}
	if out.Fallback {
		return 0, false, nil
	}
	// The splice is journaled on p; refresh the shared graph from it so the
	// next pass starts valid.
	if lim.FullRecompute {
		g.Recompute()
	} else {
		g.Update(log.Since(start))
	}
	if owned {
		log.Reset()
	}
	return out.Apps, true, nil
}

// fixpointShared is the Fig. 5 loop against a caller-maintained dependence
// graph. The journal is consumed (and, when owned by the enclosing
// pipeline, reset) after every application so the graph is valid when the
// next pass starts.
func fixpointShared(ctx context.Context, p *ir.Program, g *dep.Graph, apply ApplyFunc, max int, owned bool, lim Limits) (int, error) {
	seen := map[string]bool{}
	log, _ := p.EnsureLog()
	n := 0
	for i := 0; i < max; i++ {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		start := log.Mark()
		if !apply(p, g, seen) {
			if lim.OnEvent != nil {
				lim.OnEvent(FixpointEvent{Iteration: i})
			}
			return n, nil
		}
		n++
		incremental := false
		if lim.FullRecompute {
			g.Recompute()
		} else {
			incremental = g.Update(log.Since(start))
		}
		if lim.OnEvent != nil {
			lim.OnEvent(FixpointEvent{Iteration: i, Applied: true, Incremental: incremental})
		}
		if owned {
			log.Reset()
		}
	}
	return n, ErrIterationLimit
}
