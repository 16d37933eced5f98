package main

import "sync"

// tally counts operations attempted and failed. An operation is one opt
// invocation, one optimize request, one job or one regenerated program; it
// fails on an error, a refusal, a timeout, an unexpected engine, or an
// output the checks reject. Nothing is ever counted as skipped.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

const keptReasons = 20

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(reason string) {
	t.mu.Lock()
	t.failed++
	if len(t.reasons) < keptReasons {
		t.reasons = append(t.reasons, reason)
	}
	t.mu.Unlock()
}
