package liveness

import (
	"sync"
	"time"

	"aorta/internal/vclock"
)

// Breaker tuning defaults. The window/threshold pair is what catches a
// flapping peer: the Detector's consecutive-failure counters reset on
// every success, so a device or shard alternating success and failure
// never reaches Down — but its failures accumulate in the breaker's
// rolling window and trip the breaker, shedding load until the cooldown.
const (
	// DefaultBreakerThreshold is the failure count inside the window that
	// opens the breaker.
	DefaultBreakerThreshold = 5
	// DefaultBreakerWindow is the rolling window failures are counted in.
	DefaultBreakerWindow = 30 * time.Second
	// DefaultBreakerCooldown is how long an open breaker sheds before
	// allowing a half-open trial.
	DefaultBreakerCooldown = 10 * time.Second
)

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// Threshold is the failure count within Window that opens the breaker.
	// 0 selects DefaultBreakerThreshold; negative disables the breaker.
	Threshold int
	// Window is the rolling failure-counting window (0 selects
	// DefaultBreakerWindow). A failure exactly Window old has aged out.
	Window time.Duration
	// Cooldown is the open period before a half-open trial (0 selects
	// DefaultBreakerCooldown).
	Cooldown time.Duration
}

func (c BreakerConfig) resolve() BreakerConfig {
	if c.Threshold == 0 {
		c.Threshold = DefaultBreakerThreshold
	}
	if c.Window <= 0 {
		c.Window = DefaultBreakerWindow
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultBreakerCooldown
	}
	return c
}

// Breaker is a keyed windowed circuit breaker. Per id it is closed
// (normal), open (shedding until the cooldown passes) or half-open (one
// admitted trial decides). It keeps no state for healthy ids: an entry
// exists only while an id has recent failures or an open circuit, and a
// success deletes it. Safe for concurrent use.
//
// Every Allow that admits an operation must be followed by exactly one
// Record (the operation produced evidence: success or a transport
// failure) or Abandon (it produced none: shed elsewhere, cancelled by
// the caller). An admitted half-open trial that is neither recorded nor
// abandoned keeps the circuit open.
type Breaker struct {
	clk vclock.Clock
	cfg BreakerConfig

	mu  sync.Mutex
	ids map[string]*breakerEntry
}

type breakerEntry struct {
	fails     []time.Time // failure times inside the window, oldest first
	open      bool
	openUntil time.Time
	trial     bool // half-open: the one admitted trial is in flight
}

// NewBreaker returns a breaker on clk; zero config fields select the
// defaults above.
func NewBreaker(clk vclock.Clock, cfg BreakerConfig) *Breaker {
	return &Breaker{clk: clk, cfg: cfg.resolve(), ids: make(map[string]*breakerEntry)}
}

// Allow decides whether an operation on id may proceed. An open circuit
// sheds until its cooldown passes, then admits exactly one half-open
// trial. When it sheds, wait is the cooldown left, or 0 when the shed is
// because the trial is already in flight.
func (b *Breaker) Allow(id string) (ok bool, wait time.Duration) {
	if b.cfg.Threshold < 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.ids[id]
	if e == nil || !e.open {
		return true, 0
	}
	if wait := e.openUntil.Sub(b.clk.Now()); wait > 0 {
		return false, wait
	}
	if e.trial {
		return false, 0
	}
	e.trial = true
	return true, 0
}

// Record feeds one piece of evidence and reports whether it opened the
// circuit. Success closes the circuit and forgets the id. A failure
// while open (the half-open trial, or a straggler) re-opens it for a
// fresh cooldown; a failure while closed joins the rolling window and
// opens the circuit at the threshold.
func (b *Breaker) Record(id string, ok bool) (opened bool) {
	if b.cfg.Threshold < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.ids[id]
	if ok {
		if e != nil {
			delete(b.ids, id)
		}
		return false
	}
	if e == nil {
		e = &breakerEntry{}
		b.ids[id] = e
	}
	now := b.clk.Now()
	if e.open {
		e.trial = false
		e.openUntil = now.Add(b.cfg.Cooldown)
		return true
	}
	cutoff := now.Add(-b.cfg.Window)
	kept := e.fails[:0]
	for _, at := range e.fails {
		if at.After(cutoff) {
			kept = append(kept, at)
		}
	}
	e.fails = append(kept, now)
	if len(e.fails) < b.cfg.Threshold {
		return false
	}
	e.fails = nil
	e.open = true
	e.openUntil = now.Add(b.cfg.Cooldown)
	return true
}

// Abandon releases an admitted operation that produced no evidence, so a
// half-open trial that never reached the peer frees its slot instead of
// holding the circuit open waiting for a verdict that never comes.
func (b *Breaker) Abandon(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.ids[id]; e != nil {
		e.trial = false
	}
}

// Reset forgets id entirely: the re-admission path when a device is
// declared recovered or re-registers, or a shard leaves the membership.
func (b *Breaker) Reset(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.ids, id)
}

// Open reports whether id's circuit is open (shedding or half-open).
func (b *Breaker) Open(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.ids[id]
	return e != nil && e.open
}
