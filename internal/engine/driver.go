package engine

import (
	stdcontext "context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/dep"
	"repro/internal/obs"
	"repro/ir"
	"repro/optlib"
)

// envSignature renders an application point as a stable string over the
// *set* of bound values (statement IDs, loop head IDs, positions), ignoring
// which element variable holds which value. Using the value set rather than
// the (name, value) map makes self-inverse transformations converge: after
// a loop interchange the re-discovered point binds the same two loops with
// the roles swapped, which is the same application point.
func envSignature(e Env) string {
	parts := make([]string, 0, len(e))
	for _, v := range e {
		switch v.Kind {
		case VStmt:
			if v.Stmt != nil {
				parts = append(parts, idPart('S', v.Stmt.ID))
			}
		case VLoop:
			if v.Loop.Head != nil {
				parts = append(parts, idPart('L', v.Loop.Head.ID))
			}
		case VNum:
			parts = append(parts, strconv.FormatInt(v.Num, 10))
		case VSet:
			// Render the sorted member IDs: two distinct sets of equal size
			// must not collide, or the second application point is silently
			// skipped as already-seen.
			ids := make([]int, 0, len(v.Set))
			for _, s := range v.Set {
				if s != nil {
					ids = append(ids, s.ID)
				}
			}
			sort.Ints(ids)
			mem := make([]string, len(ids))
			for i, id := range ids {
				mem[i] = idPart('S', id)
			}
			parts = append(parts, "set{"+strings.Join(mem, ",")+"}")
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// idPart renders one signature element such as "S12" with a single
// allocation.
func idPart(prefix byte, id int) string {
	var buf [24]byte
	return string(strconv.AppendInt(append(buf[:0], prefix), int64(id), 10))
}

// Application describes one performed application of an optimization.
type Application struct {
	Spec      string
	Signature string
}

// Signature renders an application point's stable identity string — the
// key ApplyAll deduplicates on. Exported for callers (interactive sessions,
// services) that track skipped or applied points across calls.
func Signature(e Env) string { return envSignature(e) }

// ApplyOnce runs the Fig. 5 driver once: search for the first application
// point and apply the actions there. It computes its own dependence graph.
// Returns whether an application was performed.
func (o *Optimizer) ApplyOnce(p *ir.Program) (bool, error) {
	return o.ApplyOnceWith(p, dep.Compute(p))
}

// ApplyOnceWith is ApplyOnce against a caller-provided dependence graph
// (which must describe p's current state).
func (o *Optimizer) ApplyOnceWith(p *ir.Program, g *dep.Graph) (bool, error) {
	ctx := o.newContext(p, g)
	env, ok := o.findFirst(ctx)
	if !ok {
		return false, nil
	}
	if err := o.applyAt(ctx, env); err != nil {
		return false, err
	}
	return true, nil
}

// ApplyAll repeatedly finds and applies application points until none
// remain, maintaining the dependence graph between applications when
// RecomputeDeps is set — incrementally through the change journal by
// default, or from scratch per application with WithoutIncremental. A point
// signature is applied at most once, which terminates otherwise self-inverse
// transformations such as loop interchange. Returns the list of performed
// applications. Hitting MaxApplications while another fresh point remains
// returns the applications performed so far alongside
// optlib.ErrIterationLimit.
func (o *Optimizer) ApplyAll(p *ir.Program) ([]Application, error) {
	return o.ApplyAllCtx(stdcontext.Background(), p)
}

// ApplyAllCtx is ApplyAll under a context: the driver loop checks ctx
// between applications and stops early with ctx.Err() when the context is
// cancelled or its deadline passes, returning the applications already
// performed. The program is left in its partially-optimized (structurally
// valid) state. This is the entry point request-scoped callers (the optd
// service) use to bound optimization time.
func (o *Optimizer) ApplyAllCtx(ctx stdcontext.Context, p *ir.Program) ([]Application, error) {
	return o.ApplyAllWith(ctx, p, nil)
}

// ApplyAllWith is ApplyAllCtx against a caller-maintained dependence graph
// g, which must describe p's current state; nil computes a private one.
// On return — error returns included — g describes p's state again: it is
// maintained after every application (refreshed in place under
// WithoutIncremental, and once at the end under WithoutRecompute). A
// pipeline can therefore hand one graph from pass to pass and pay for one
// dep.Compute instead of one per pass. OnPassStats reports this pass's
// share of g's traffic counters.
func (o *Optimizer) ApplyAllWith(ctx stdcontext.Context, p *ir.Program, g *dep.Graph) (apps []Application, err error) {
	traced := o.Tracer.Enabled()
	root := o.Tracer.Start("pass", obs.String("spec", o.Spec.Name))
	var done []Application
	seen := map[string]bool{}
	log, owned := p.EnsureLog()
	if owned {
		defer log.Detach()
	}
	if g == nil {
		g = dep.Compute(p)
	} else if !o.RecomputeDeps {
		// The paper's no-recompute mode leaves the graph stale while the
		// pass runs; the next pass must not inherit that.
		defer func() {
			if len(done) > 0 {
				g.Recompute()
			}
		}()
	}
	statsBase := g.Stats()
	if o.OnPassDone != nil || o.OnPassStats != nil || traced {
		t0 := time.Now()
		costBase := o.cost
		rollbackBase := log.Rollbacks()
		defer func() {
			d := time.Since(t0)
			if err != nil {
				root.Set("error", err.Error())
			}
			root.Set("applications", len(apps))
			root.End()
			if o.OnPassDone != nil {
				o.OnPassDone(o.Spec.Name, len(apps), d)
			}
			if o.OnPassStats != nil {
				c, st := o.cost, g.Stats().Sub(statsBase)
				o.OnPassStats(obs.PassStats{
					Spec:               o.Spec.Name,
					Applications:       len(apps),
					Duration:           d,
					PatternChecks:      int64(c.PatternChecks - costBase.PatternChecks),
					DepChecks:          int64(c.DepChecks - costBase.DepChecks),
					ScalarLookups:      st.ScalarLookups,
					ArrayLookups:       st.ArrayLookups,
					ControlLookups:     st.ControlLookups,
					IncrementalUpdates: st.IncrementalUpdates,
					StructuralRebuilds: st.StructuralRebuilds,
					Rollbacks:          log.Rollbacks() - rollbackBase,
				})
			}
		}()
	}
	for {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		ectx := o.newContext(p, g)
		var chosen Env
		found := false
		var searchStart time.Time
		var costPre Cost
		var statsPre dep.Stats
		if traced {
			ectx.timed = true
			searchStart = time.Now()
			costPre = o.cost
			statsPre = g.Stats()
		}
		o.matchPattern(ectx, 0, Env{}, func(env Env) bool {
			sig := envSignature(env)
			if seen[sig] {
				return true // keep searching
			}
			chosen = env.clone()
			found = true
			return false
		})
		var searchDur, depDur time.Duration
		var costPost Cost
		var statsPost dep.Stats
		if traced {
			searchDur = time.Since(searchStart)
			depDur = time.Duration(ectx.depNS)
			costPost = o.cost
			statsPost = g.Stats()
		}
		if !found {
			if traced {
				// The terminating search: the pass reached its fixpoint.
				sp := root.Child("search", obs.Bool("found", false))
				setSearchAttrs(sp, costPost, costPre, statsPost.Sub(statsPre))
				sp.EndWith(searchDur)
			}
			break
		}
		if len(done) >= o.MaxApplications {
			// A fresh point exists beyond the cap: a non-converging rewrite
			// system or a cap set too low for the program.
			return done, optlib.ErrIterationLimit
		}
		sig := envSignature(chosen)
		seen[sig] = true
		var pt, act *obs.Span
		var actStart time.Time
		var rbPre int64
		if traced {
			pt = root.Child("point", obs.Int("index", len(done)), obs.String("sig", sig))
			m := pt.Child("match",
				obs.Int64("pattern_checks", int64(costPost.PatternChecks-costPre.PatternChecks)))
			m.EndWith(searchDur - depDur)
			ds := statsPost.Sub(statsPre)
			dsp := pt.Child("depend",
				obs.Int64("dep_checks", int64(costPost.DepChecks-costPre.DepChecks)),
				obs.Int64("scalar_lookups", ds.ScalarLookups),
				obs.Int64("array_lookups", ds.ArrayLookups),
				obs.Int64("control_lookups", ds.ControlLookups))
			dsp.EndWith(depDur)
			act = pt.Child("action")
			actStart = time.Now()
			rbPre = log.Rollbacks()
		}
		start := log.Mark()
		if aerr := o.applyAt(ectx, chosen); aerr != nil {
			// The actions could not be applied at this point (e.g. an
			// unrepresentable substitution). The undo log rolled the program
			// back in place, preserving statement identity, so the graph is
			// still valid — keep searching with it as-is.
			if traced {
				act.Set("applied", false)
				act.Set("rollbacks", log.Rollbacks()-rbPre)
				act.Set("error", aerr.Error())
				act.EndWith(time.Since(actStart))
				pt.End()
			}
			continue
		}
		act.Set("applied", true)
		done = append(done, Application{Spec: o.Spec.Name, Signature: sig})
		if o.RecomputeDeps {
			if o.IncrementalDeps {
				if g.Update(log.Since(start)) {
					act.Set("dep_update", "incremental")
				} else {
					act.Set("dep_update", "structural")
				}
			} else {
				g.Recompute()
				act.Set("dep_update", "full")
			}
		} else {
			act.Set("dep_update", "none")
		}
		if traced {
			act.EndWith(time.Since(actStart))
			pt.End()
		}
		if owned {
			// The journal's changes are consumed; keep it from growing
			// across a long fixpoint run. (A caller-attached journal is left
			// intact — its owner decides when to consume it.)
			log.Reset()
		}
	}
	return done, nil
}

// setSearchAttrs annotates a search span with the precondition-check and
// dependence-lookup deltas of one full search.
func setSearchAttrs(sp *obs.Span, post, pre Cost, ds dep.Stats) {
	sp.Set("pattern_checks", int64(post.PatternChecks-pre.PatternChecks))
	sp.Set("dep_checks", int64(post.DepChecks-pre.DepChecks))
	sp.Set("scalar_lookups", ds.ScalarLookups)
	sp.Set("array_lookups", ds.ArrayLookups)
	sp.Set("control_lookups", ds.ControlLookups)
}

// ApplyAt applies the optimizer's actions at a specific, already-found
// application point (the paper's "perform an optimization at one
// application point", possibly overriding dependence restrictions — the
// caller may pass any binding, checked or not).
func (o *Optimizer) ApplyAt(p *ir.Program, g *dep.Graph, env Env) error {
	ctx := o.newContext(p, g)
	return o.applyAt(ctx, env)
}

// applyAt executes the action section under env with rollback on failure.
// Instead of snapshotting the whole program (the seed's Clone/CopyFrom,
// O(n) per attempt), it journals the executed primitives and replays them
// backwards on failure — O(|edits|) — leaving every untouched statement
// pointer-identical so the caller's dependence graph stays valid.
func (o *Optimizer) applyAt(ctx *context, env Env) error {
	log, owned := ctx.prog.EnsureLog()
	if owned {
		defer log.Detach()
	}
	mark := log.Mark()
	if err := o.execActions(ctx, env.clone(), o.Spec.Actions); err != nil {
		log.UndoTo(mark)
		return err
	}
	if err := ctx.prog.Validate(); err != nil {
		log.UndoTo(mark)
		return fmt.Errorf("engine: %s actions broke program structure: %w", o.Spec.Name, err)
	}
	return nil
}
