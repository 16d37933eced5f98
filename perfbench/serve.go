package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// connections caps the open HTTP connections: one client process, at most
// one connection per core.
var connections = runtime.NumCPU()

const (
	requestTimeout = 30 * time.Second
	// burstParts splits the end-phase burst.
	burstParts = 5
	// minStretchSamples is the fewest answers a repeat stretch needs to
	// count in stretchMedian.
	minStretchSamples = 10
	// stretchLength is how long a calibrated stretch of the probe lasts.
	stretchLength = 60 * time.Millisecond
)

func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

type optimizeResponse struct {
	MiniF   string `json:"minif"`
	TotalUS int64  `json:"total_us"`
	Cached  bool   `json:"cached"`
	Engine  string `json:"engine"`
}

type jobRecord struct {
	ID          string    `json:"id"`
	State       string    `json:"state"`
	Attempts    int       `json:"attempts"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	LastError   string    `json:"last_error"`
}

type metricsSnapshot struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Rejected struct {
		Draining int64 `json:"draining"`
		Overload int64 `json:"overload"`
	} `json:"rejected"`
}

type serveResult struct {
	coldMS, hitMS         []float64
	handlerMS, httpMS     []float64
	queueWaitMS, jobRunMS []float64
	jobsPerS              float64
	jobRates              []float64 // per burst part, at the reference host's speed
	retries               int
	compiledShare         float64
	cacheHitRatio         float64
	rejected              int64
	optdPeakRSSMB         float64
	// coldP50, coldP95 and hitP50 are percentiles of the timed requests;
	// hitP50 of the probe is stretchMedian's.
	coldP50, coldP95, hitP50 float64
	requests                 int
	freshUsed                int // fresh programs drawn from the input set
}

// server drives one optd and keeps every exchange for the checks.
type server struct {
	p   *optdProc
	w   *workload
	in  *inputSet
	rec *recorder
	t   *tally
	or  *oracle
	// canonical maps a compile-set program ID to the output opt produced
	// for it, so optd's output for a renamed variant is checked against it.
	canonical map[string]string

	mu        sync.Mutex
	nextFresh int
	done      []program           // distinct programs answered, oldest first
	answers   map[string]string   // program ID → the first optimized text returned
	jobs      map[string]program  // job ID → program
	jobF      map[string]*float64 // job ID → host factor of its stretch
}

// exchange is one /v1/optimize request and what came back.
type exchange struct {
	kind string // cold or hit
	// f points at the host factor of the calibrated stretch the request
	// was in, set when the calibrator settles.
	f              *float64
	p              program
	due, sent, end time.Time
	resp           optimizeResponse
	err            error // transport error, timeout or non-200
}

func (sv *server) freshProgram() (program, error) {
	sv.mu.Lock()
	i := sv.nextFresh
	sv.nextFresh++
	sv.mu.Unlock()
	return sv.in.fresh(i)
}

// servePhase runs the probe, then the job burst, and only then checks
// every answer, so the oracle's work never competes with optd for the
// processors while anything is timed. Calibration children run only while
// no request is in flight.
func servePhase(s *system, w *workload, in *inputSet, rec *recorder, t *tally, or *oracle, canonical map[string]string, cal *calibrator) (*serveResult, error) {
	sv := &server{p: s.optd, w: w, in: in, rec: rec, t: t, or: or, canonical: canonical,
		answers: map[string]string{}, jobs: map[string]program{}, jobF: map[string]*float64{}}
	res := &serveResult{}
	before, err := sv.metrics()
	if err != nil {
		return nil, err
	}

	// hitStretches are the stretches of the probe's repeats, dozens each.
	cold, hitStretches, err := sv.probe(cal)
	if err != nil {
		return nil, err
	}
	var exchanges []*exchange
	for _, xs := range append(cold, hitStretches...) {
		exchanges = append(exchanges, xs...)
	}
	after, err := sv.metrics()
	if err != nil {
		return nil, err
	}

	// End phase: the burst of distinct jobs goes in parts, each submitted
	// back to back, awaited before the next and a calibrated stretch;
	// jobs_per_s is the median of the parts' rates at the reference host's
	// speed, so one stalled part does not set it.
	type part struct {
		jobs int
		span time.Duration
		f    *float64
	}
	var parts []part
	for range burstParts {
		var ids []string
		var records map[string]jobRecord
		f, err := cal.around(func(f *float64) error {
			for i := 0; i < w.burst/burstParts; i++ {
				p, err := sv.freshProgram()
				if err != nil {
					return err
				}
				id, err := sv.submitJob(p, f)
				if err != nil {
					t.attempt()
					t.fail(fmt.Sprintf("job submission: %v", err))
					continue
				}
				ids = append(ids, id)
			}
			records, err = sv.awaitJobs(ids, 60*time.Second)
			return err
		})
		if err != nil {
			return nil, err
		}
		if d := jobSpan(ids, records); d > 0 {
			parts = append(parts, part{len(ids), d, f})
		}
	}
	var all []string
	for id := range sv.jobs {
		all = append(all, id)
	}
	sort.Strings(all)
	records, err := sv.awaitJobs(all, 60*time.Second)
	if err != nil {
		return nil, err
	}
	if res.optdPeakRSSMB, err = s.optd.peakRSSMB(); err != nil {
		return nil, err
	}
	cal.settle() // the run's timed work is over

	var rates []float64
	for _, p := range parts {
		rates = append(rates, float64(p.jobs)/(*p.f*p.span.Seconds()))
	}
	res.jobRates = rates
	res.jobsPerS = pct(rates, 0.5)

	compiled := 0
	for _, x := range exchanges {
		res.requests++
		if x.err == nil && x.resp.Engine == "compiled-plugin" {
			compiled++
		}
		if x.err != nil {
			continue
		}
		f := *x.f
		switch x.kind {
		case "cold":
			res.coldMS = append(res.coldMS, f*ms(x.end.Sub(x.due)))
			handler := time.Duration(x.resp.TotalUS) * time.Microsecond
			res.handlerMS = append(res.handlerMS, f*ms(handler))
			res.httpMS = append(res.httpMS, f*ms(x.end.Sub(x.sent)-handler))
		case "hit":
			res.hitMS = append(res.hitMS, f*ms(x.end.Sub(x.due)))
		}
	}
	res.coldP50 = pct(res.coldMS, 0.5)
	res.coldP95 = pct(res.coldMS, 0.95)
	res.hitP50 = stretchMedian(hitStretches)
	if res.requests > 0 {
		res.compiledShare = float64(compiled) / float64(res.requests)
	}
	if n := (after.Cache.Hits - before.Cache.Hits) + (after.Cache.Misses - before.Cache.Misses); n > 0 {
		res.cacheHitRatio = float64(after.Cache.Hits-before.Cache.Hits) / float64(n)
	}
	res.rejected = (after.Rejected.Draining + after.Rejected.Overload) - (before.Rejected.Draining + before.Rejected.Overload)
	res.freshUsed = sv.nextFresh

	// Checks, after everything timed has finished.
	for _, x := range exchanges {
		t.attempt()
		err := x.err
		if err == nil {
			err = sv.verify(x.p, x.kind, x.resp)
		}
		if err != nil {
			t.fail(fmt.Sprintf("optimize %s %s: %v", x.kind, x.p.ID, err))
		}
	}
	sv.checkJobs(records, res)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probe is the serve phase's main part: one request at a time, first
// probeRounds unseen programs per served program, then probeRepeats
// repeats of each answered program. It measures the
// latency of a request that has optd to itself, and returns the cold and
// the repeat requests in their calibrated stretches.
func (sv *server) probe(cal *calibrator) (cold, hits [][]*exchange, err error) {
	var progs []program
	for i := 0; i < sv.w.probeRounds*len(sv.in.serve); i++ {
		p, err := sv.freshProgram()
		if err != nil {
			return nil, nil, err
		}
		progs = append(progs, p)
	}
	if cold, err = sv.sequential(cal, "cold", progs); err != nil {
		return nil, nil, err
	}
	progs = nil
	for r := 0; r < sv.w.probeRepeats; r++ {
		progs = append(progs, sv.done...)
	}
	hits, err = sv.sequential(cal, "hit", progs)
	return cold, hits, err
}

// sequential sends one request per program, one at a time, in calibrated
// stretches that last at least stretchLength or one request.
func (sv *server) sequential(cal *calibrator, kind string, progs []program) ([][]*exchange, error) {
	var out [][]*exchange
	for len(progs) > 0 {
		var stretch []*exchange
		_, err := cal.around(func(f *float64) error {
			for start := time.Now(); len(progs) > 0; {
				now := time.Now()
				x := sv.optimize(progs[0], kind, now, now)
				x.f = f
				stretch = append(stretch, x)
				progs = progs[1:]
				if time.Since(start) >= stretchLength {
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, stretch)
	}
	return out, nil
}

// optimize sends one /v1/optimize request. A cold program that gets a 200
// becomes a target for later repeats; its first answer is the one every
// later answer for it must equal.
func (sv *server) optimize(p program, kind string, due, sent time.Time) *exchange {
	x := &exchange{kind: kind, p: p, due: due, sent: sent}
	reqSpan := sv.rec.open(p.ID, "request."+kind, 0, due)
	httpSpan := sv.rec.open(p.ID, "http", reqSpan, sent)
	body, _ := json.Marshal(map[string]any{"source": p.Source, "opts": sv.w.passes})
	x.err = sv.post("/v1/optimize", body, http.StatusOK, &x.resp)
	x.end = time.Now()
	sv.rec.close(httpSpan, x.end)
	sv.rec.close(reqSpan, x.end)
	if x.err == nil {
		// A cached answer carries the total_us of the run that produced
		// it, so only a fresh answer says how long the handler took.
		if !x.resp.Cached {
			handler := time.Duration(x.resp.TotalUS) * time.Microsecond
			sv.rec.add(p.ID, "server.handler", httpSpan, x.end.Add(-handler), x.end)
		}
		sv.answered(p, x.resp.MiniF)
	}
	return x
}

// answered records the first answer for p and makes p a repeat target.
func (sv *server) answered(p program, minif string) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if _, seen := sv.answers[p.ID]; !seen {
		sv.answers[p.ID] = minif
		sv.done = append(sv.done, p)
	}
}

// verify checks one answer: served by the compiled plugin, a cache hit
// for a repeat, byte-identical to the program's first answer (and to
// opt's output, for a renamed compile-set program), and accepted by the
// oracle.
func (sv *server) verify(p program, kind string, resp optimizeResponse) error {
	if resp.Engine != "compiled-plugin" {
		return fmt.Errorf("served by engine %q, not the compiled plugin", resp.Engine)
	}
	if kind == "hit" && !resp.Cached {
		return fmt.Errorf("a repeat was not served from the result cache")
	}
	if first, seen := sv.answers[p.ID]; seen && first != resp.MiniF {
		return fmt.Errorf("output differs from the earlier answer for the same program")
	}
	if want, ok := sv.canonical[p.origID]; ok && withName(resp.MiniF, p.origName) != want {
		return fmt.Errorf("output differs from opt's output for %s", p.origID)
	}
	return sv.or.check(p, resp.MiniF)
}

// submitJob submits p as a job; f points at the host factor of the
// calibrated stretch it belongs to.
func (sv *server) submitJob(p program, f *float64) (string, error) {
	body, _ := json.Marshal(map[string]any{"source": p.Source, "opts": sv.w.passes})
	var rec jobRecord
	if err := sv.post("/v1/jobs", body, http.StatusAccepted, &rec); err != nil {
		return "", err
	}
	sv.mu.Lock()
	sv.jobs[rec.ID] = p
	sv.jobF[rec.ID] = f
	sv.mu.Unlock()
	return rec.ID, nil
}

// awaitJobs long-polls each given job until it is terminal or the limit
// passes, and returns the records by ID; a job still unfinished at the limit is missing or not done, and
// counts as failed. A long poll costs optd nothing while its workers run,
// where polling the job list would compete with them for the processors.
func (sv *server) awaitJobs(ids []string, limit time.Duration) (map[string]jobRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	out := map[string]jobRecord{}
	for _, id := range ids {
		for ctx.Err() == nil {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, sv.p.base+"/v1/jobs/"+id+"?wait=1", nil)
			if err != nil {
				return nil, err
			}
			var r jobRecord
			if err := sv.do(req, http.StatusOK, &r); err != nil {
				if ctx.Err() != nil {
					break
				}
				return nil, err
			}
			out[id] = r
			if r.State == "done" || r.State == "failed" || r.State == "cancelled" {
				break
			}
		}
	}
	return out, nil
}

// checkJobs counts every submitted job as one operation, fetches each
// finished job's result and runs it through the same checks as a cold
// optimize answer.
func (sv *server) checkJobs(records map[string]jobRecord, res *serveResult) {
	for id, p := range sv.jobs {
		sv.t.attempt()
		r, ok := records[id]
		if !ok || r.State != "done" {
			sv.t.fail(fmt.Sprintf("job %s (%s): state %q %s", id, p.ID, r.State, r.LastError))
			continue
		}
		var resp optimizeResponse
		err := sv.get("/v1/jobs/"+id+"/result", &resp)
		if err == nil {
			sv.answered(p, resp.MiniF)
			err = sv.verify(p, "job", resp)
		}
		if err != nil {
			sv.t.fail(fmt.Sprintf("job %s (%s): %v", id, p.ID, err))
			continue
		}
		res.retries += r.Attempts - 1
		f := *sv.jobF[id]
		res.queueWaitMS = append(res.queueWaitMS, f*ms(r.StartedAt.Sub(r.SubmittedAt)))
		res.jobRunMS = append(res.jobRunMS, f*ms(r.FinishedAt.Sub(r.StartedAt)))
		root := sv.rec.open(p.ID, "job", 0, r.SubmittedAt)
		sv.rec.add(p.ID, "job.queue", root, r.SubmittedAt, r.StartedAt)
		sv.rec.add(p.ID, "job.run", root, r.StartedAt, r.FinishedAt)
		sv.rec.close(root, r.FinishedAt)
	}
}

func (sv *server) metrics() (metricsSnapshot, error) {
	var m metricsSnapshot
	err := sv.get("/metrics", &m)
	return m, err
}

func (sv *server) post(path string, body []byte, want int, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sv.p.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return sv.do(req, want, out)
}

func (sv *server) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, sv.p.base+path, nil)
	if err != nil {
		return err
	}
	return sv.do(req, http.StatusOK, out)
}

func (sv *server) do(req *http.Request, want int, out any) error {
	resp, err := sv.p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// p95 and the other percentiles below return NaN on an empty sample, which
// the caller reports as a failed run rather than a number.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantile(xs, q)
}

// jobSpan is last finished_at − first submitted_at of the jobs,
// from the server's own timestamps; 0 when any job did not finish.
func jobSpan(ids []string, records map[string]jobRecord) time.Duration {
	var first, last time.Time
	for _, id := range ids {
		r, ok := records[id]
		if !ok || r.State != "done" {
			return 0
		}
		if first.IsZero() || r.SubmittedAt.Before(first) {
			first = r.SubmittedAt
		}
		if r.FinishedAt.After(last) {
			last = r.FinishedAt
		}
	}
	return last.Sub(first)
}

// stretchMedian is the median over the probe's repeat stretches of each
// stretch's median latency, counting stretches with at least
// minStretchSamples answers: a repeat takes well under a millisecond, so
// one stall of the shared host delays many of them, and this keeps that
// to one stretch.
func stretchMedian(stretches [][]*exchange) float64 {
	var per []float64
	for _, xs := range stretches {
		var lat []float64
		for _, x := range xs {
			if x.err == nil {
				lat = append(lat, *x.f*ms(x.end.Sub(x.due)))
			}
		}
		if len(lat) >= minStretchSamples {
			per = append(per, median(lat))
		}
	}
	return pct(per, 0.5)
}
