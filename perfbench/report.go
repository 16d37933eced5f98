package main

import "fmt"

// report turns the traced in-process pass into per-layer metrics. Times
// and allocation counts are totals over the compile set; every layer call
// is a leaf span, so its time is also its self time. Times are at the
// reference host's speed.
func (st *layerStats) report(r *result, programs int) {
	f := st.factor()
	r.set("frontend.parse_us", "us", f*st.parseUS, "")
	r.set("frontend.parse_allocs", "count", st.parseAllocs, "")
	r.set("dep.compute_us", "us", f*st.depUS, "one dep.Compute per pass")
	r.set("dep.compute_allocs", "count", st.depAllocs, "")
	r.set("dep.edges", "count", st.depEdges, "")
	for _, name := range allPasses {
		e := st.engine[name]
		r.set("engine."+name+".us", "us", f*e.us, "")
		r.set("engine."+name+".allocs", "count", e.allocs, "")
		r.set("engine."+name+".applications", "count", e.applications, "")
	}
	r.set("engine.pattern_checks", "count", float64(st.patternChecks), "")
	r.set("engine.dep_checks", "count", float64(st.depChecks), "")
	r.set("engine.rollbacks", "count", float64(st.rollbacks), "")
	checks := st.patternChecks + st.depChecks
	r.set("engine.apply_per_check", "1", float64(st.applications)/float64(max(checks, 1)), "applications per precondition check")
	r.set("dep.scalar_lookups", "count", float64(st.dep.ScalarLookups), "")
	r.set("dep.array_lookups", "count", float64(st.dep.ArrayLookups), "")
	r.set("dep.control_lookups", "count", float64(st.dep.ControlLookups), "")
	r.set("dep.incremental_updates", "count", float64(st.dep.IncrementalUpdates), "")
	r.set("dep.structural_rebuilds", "count", float64(st.dep.StructuralRebuilds), "")
	for _, name := range allPasses {
		r.set("region."+name+".us", "us", f*st.regionUS[name], "ApplyAllRegions at 2 workers")
	}
	r.set("region.regions_max", "count", float64(st.regionsMax), "")
	r.set("region.split_passes", "count", float64(st.splitPasses), "")
	r.set("optlib.pipeline_us", "us", f*st.pipelineUS, "PipelineCtx over the plugin's funcs")
	r.set("optlib.pipeline_allocs", "count", st.pipelineAllocs, "")
	r.set("nativecache.build_s", "s", f*st.buildS, "cold Ensure into a fresh directory")
	r.set("nativecache.load_ms", "ms", f*st.loadMS, "warm Ensure in a fresh process")
	r.set("ir.print_us", "us", f*st.printUS, "")
	r.set("interp.ref_us", "us", f*st.refUS, "the oracle's reference runs")
	r.set("trace.overhead_ms", "ms", f*(st.tracedMS-st.untracedMS),
		fmt.Sprintf("traced %.1f ms minus untraced %.1f ms over %d programs", st.tracedMS, st.untracedMS, programs))
	r.set("trace.overhead_pct", "%", 100*(st.tracedMS-st.untracedMS)/st.untracedMS, "")
}

// reportLayers turns the serve phase into the service-layer metrics.
func (sr *serveResult) reportLayers(r *result) {
	r.set("server.handler_ms_p50", "ms", pct(sr.handlerMS, 0.5), "total_us of cold answers")
	r.set("server.http_ms_p50", "ms", pct(sr.httpMS, 0.5), "client time after sending minus total_us")
	r.set("server.cache_hit_ratio", "1", sr.cacheHitRatio, "/metrics delta over the main phase")
	r.set("server.rejected", "count", float64(sr.rejected), "/metrics delta over the main phase")
	r.set("server.engine_compiled_share", "1", sr.compiledShare, "")
	r.set("jobs.queue_wait_ms_p50", "ms", pct(sr.queueWaitMS, 0.5), "")
	r.set("jobs.run_ms_p50", "ms", pct(sr.jobRunMS, 0.5), "")
	r.set("jobs.retries", "count", float64(sr.retries), "")
}
