package liveness

import (
	"sync"
	"time"

	"aorta/internal/vclock"
)

// Dial backoff defaults.
const (
	// DefaultBackoffBase is the first suppression window after a failed
	// dial; consecutive failures double it.
	DefaultBackoffBase = time.Second
	// DefaultBackoffMax caps the doubling.
	DefaultBackoffMax = 60 * time.Second
)

// Backoff is a keyed exponential redial suppression: after the n-th
// consecutive failure an id is suppressed for base·2^(n−1), capped at
// max. Callers check Remaining before dialing, report each failed dial
// with Fail and each successful one with Clear. Safe for concurrent use.
type Backoff struct {
	clk       vclock.Clock
	base, max time.Duration

	mu  sync.Mutex
	ids map[string]*backoffEntry
}

type backoffEntry struct {
	fails int
	until time.Time
}

// NewBackoff returns a backoff on clk. base 0 selects DefaultBackoffBase
// and a negative base disables suppression; max <= 0 selects
// DefaultBackoffMax.
func NewBackoff(clk vclock.Clock, base, max time.Duration) *Backoff {
	if base == 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	return &Backoff{clk: clk, base: base, max: max, ids: make(map[string]*backoffEntry)}
}

// Fail records one more consecutive failure for id and starts its next
// suppression window.
func (b *Backoff) Fail(id string) {
	if b.base < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.ids[id]
	if e == nil {
		e = &backoffEntry{}
		b.ids[id] = e
	}
	e.fails++
	window := b.base
	for i := 1; i < e.fails && window < b.max; i++ {
		window *= 2
	}
	e.until = b.clk.Now().Add(min(window, b.max))
}

// Remaining reports how much longer id is suppressed; 0 means a dial may
// proceed.
func (b *Backoff) Remaining(id string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.ids[id]
	if e == nil {
		return 0
	}
	if wait := e.until.Sub(b.clk.Now()); wait > 0 {
		return wait
	}
	return 0
}

// Clear forgets id's failure streak: the next dial proceeds at once and
// a later failure starts again from base.
func (b *Backoff) Clear(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.ids, id)
}
