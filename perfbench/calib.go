package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// refCalibMS is the typical wall time of one calibration child on the
// reference host, a 2-core Intel Xeon virtual machine with go1.24.0. Every
// time metric is reported at the reference host's speed (see calibrator).
const refCalibMS = 15.0

// calibrate is the calibration child's work: a fixed amount of the kind of
// work an optimizer does — small allocations, map inserts and lookups,
// pointer-linked nodes, sorting and string building. It depends on nothing
// in the repository, so no change to the system under test moves it.
func calibrate() int {
	type node struct {
		name string
		succ []*node
	}
	total := 0
	for rep := 0; rep < 6; rep++ {
		m := map[string]*node{}
		var all []*node
		for i := 0; i < 3000; i++ {
			n := &node{name: fmt.Sprintf("n%d_%d", i, rep)}
			m[n.name] = n
			all = append(all, n)
			if i > 0 {
				p := all[(i*7919)%i]
				p.succ = append(p.succ, n)
			}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].name < all[b].name })
		var b strings.Builder
		for _, n := range all {
			b.WriteString(n.name)
			total += len(n.succ) + len(m[n.name].succ)
		}
		total += b.Len()
	}
	return total
}

// calibrator measures how fast the host runs right now. The machine is a
// shared virtual machine whose speed moves by a fifth within seconds with
// its neighbours' load, and every wall time moves with it. So each timed
// stretch of work — an opt invocation, a few dozen milliseconds of probe
// requests, a part of the job burst, a set-up — runs between two
// calibration marks, never while anything timed is in flight, and its
// times are scaled by refCalibMS ÷ the median of the marks taken within
// smoothing of it, less the steal share (see settle): they are reported at
// the reference host's speed. The median over a few seconds of marks
// follows the host's drift while one noisy mark moves it little.
type calibrator struct {
	root      string
	marks     []calMark
	stretches []stretch
}

type calMark struct {
	at           time.Time // when the mark ended
	ms           float64
	steal, total uint64 // the host's processor ticks at the end, from cpuTicks
}

type stretch struct {
	start, end time.Time
	f          *float64 // set by settle
}

const (
	// fresh is how recent the latest mark must be to open a stretch
	// without a new one.
	fresh = 20 * time.Millisecond
	// smoothing is how far before and after a stretch its marks may lie.
	smoothing = 3 * time.Second
)

// mark runs two calibration children and keeps the faster time: a burst
// of the hypervisor's steal that stalls one child must stall both to move
// the mark.
func (c *calibrator) mark() error {
	best := math.Inf(1)
	for range 2 {
		cmd := exec.Command(os.Args[0], "-root", c.root, "-calibrate")
		cmd.Dir = c.root
		start := time.Now()
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("calibration child: %v: %s", err, out)
		}
		best = min(best, ms(time.Since(start)))
	}
	steal, total := cpuTicks()
	c.marks = append(c.marks, calMark{at: time.Now(), ms: best, steal: steal, total: total})
	return nil
}

// around runs work between two calibration marks. It hands work, and
// returns, the stretch's host factor, which is set once settle has run:
// above 1 when the host ran faster than the reference, below 1 when
// slower.
func (c *calibrator) around(work func(f *float64) error) (*float64, error) {
	if n := len(c.marks); n == 0 || time.Since(c.marks[n-1].at) > fresh {
		if err := c.mark(); err != nil {
			return nil, err
		}
	}
	s := stretch{start: time.Now(), f: new(float64)}
	if err := work(s.f); err != nil {
		return nil, err
	}
	s.end = time.Now()
	if err := c.mark(); err != nil {
		return nil, err
	}
	c.stretches = append(c.stretches, s)
	return s.f, nil
}

// settle sets the host factor of every stretch so far. The run calls it
// once, after its last timed work. Besides the marks' speed, the factor
// takes out the share of processor time the hypervisor gave to other
// machines (steal) between the first and the last of those marks: a mark
// keeps the faster of two children, so it dodges much of the steal that
// every timed stretch pays in full.
func (c *calibrator) settle() {
	for _, s := range c.stretches {
		var near []calMark
		for _, m := range c.marks {
			if m.at.After(s.start.Add(-smoothing)) && m.at.Before(s.end.Add(smoothing)) {
				near = append(near, m)
			}
		}
		times := make([]float64, len(near))
		for i, m := range near {
			times[i] = m.ms
		}
		stolen := 0.0
		if first, last := near[0], near[len(near)-1]; last.total > first.total {
			stolen = float64(last.steal-first.steal) / float64(last.total-first.total)
		}
		*s.f = refCalibMS / median(times) * (1 - stolen)
	}
}

// times returns every mark's calibration time.
func (c *calibrator) times() []float64 {
	out := make([]float64, len(c.marks))
	for i, m := range c.marks {
		out[i] = m.ms
	}
	return out
}
