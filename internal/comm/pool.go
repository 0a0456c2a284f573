package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pool tuning defaults. All durations are measured on the layer's clock,
// so a scaled lab reaps idle sessions and expires backoff in virtual time.
const (
	// DefaultPoolIdleTTL is how long an unused session survives before the
	// pool reaps it.
	DefaultPoolIdleTTL = 60 * time.Second
	// DefaultDialBackoff is the first suppression window after a failed
	// dial; consecutive failures double it.
	DefaultDialBackoff = time.Second
	// DefaultDialBackoffMax caps the exponential dial backoff.
	DefaultDialBackoffMax = 60 * time.Second
)

// ErrBackoff marks an operation that was suppressed by the dial-failure
// cache: the device refused a recent dial and its backoff window has not
// expired, so the pool did not dial it again. The error also matches
// ErrUnreachable, preserving network data independence — callers treat a
// backed-off device exactly like an unreachable one (no tuple, excluded
// from optimization), just without paying for the dial.
var ErrBackoff = errors.New("comm: device in dial backoff")

// PoolConfig tunes the layer's transport pool.
type PoolConfig struct {
	// MaxSessions caps concurrently open sessions; beyond it the
	// least-recently-used idle session is evicted. The cap is soft: busy
	// sessions are never evicted. 0 means no cap — the registry bounds the
	// sessions and IdleTTL reclaims idle ones. Negative disables pooling
	// entirely: every operation dials and closes its own connection (the
	// pre-pool behaviour, kept for comparison benchmarks).
	MaxSessions int
	// IdleTTL reaps sessions unused for this long. 0 selects
	// DefaultPoolIdleTTL; negative keeps idle sessions forever.
	IdleTTL time.Duration
	// BackoffBase is the first suppression window after a failed dial;
	// consecutive failures double it up to BackoffMax. 0 selects
	// DefaultDialBackoff; negative disables the dial-failure cache.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff (0 selects
	// DefaultDialBackoffMax).
	BackoffMax time.Duration
}

// resolve fills zero values with the defaults.
func (c PoolConfig) resolve() PoolConfig {
	if c.IdleTTL == 0 {
		c.IdleTTL = DefaultPoolIdleTTL
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = DefaultDialBackoff
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = DefaultDialBackoffMax
	}
	return c
}

// pool owns the layer's persistent sessions, keyed by device ID.
//
// Ownership model: sessions opened through the pool belong to the pool,
// not to the operation that triggered the dial. Operations borrow a
// session via Layer.WithSession; concurrent borrowers of the same device
// share one live session (Session is safe for concurrent use), and the
// per-entry dial mutex serializes dialing so simultaneous cache misses
// produce exactly one dial instead of racing.
//
// Bookkeeping is O(1) per operation: Metrics.OpenSessions counts live
// sessions, and idle lists the sessions nobody borrows in release order,
// so its front is both the least recently used (the cap's eviction
// victim) and the first to pass its idle TTL (reaping stops at the first
// entry still inside it).
type pool struct {
	layer *Layer

	mu      sync.Mutex
	cfg     PoolConfig
	entries map[string]*poolEntry
	backoff map[string]*backoffState
	idle    idleList
}

// poolEntry is the pool's per-device slot. refs, sess, lastUsed and the
// idle-list links are guarded by pool.mu; dialMu serializes the
// validate-or-dial step so only one borrower dials while the rest wait
// and share the result.
type poolEntry struct {
	id     string
	dialMu sync.Mutex

	sess     *Session
	refs     int
	lastUsed time.Time

	// An entry is on the idle list exactly when it holds a session and
	// refs is 0.
	idle       bool
	prev, next *poolEntry
}

// idleList is an intrusive doubly linked list of idle pool entries, oldest
// release first.
type idleList struct{ front, back *poolEntry }

func (l *idleList) pushBack(e *poolEntry) {
	e.idle, e.prev, e.next = true, l.back, nil
	if l.back != nil {
		l.back.next = e
	} else {
		l.front = e
	}
	l.back = e
}

func (l *idleList) remove(e *poolEntry) {
	if !e.idle {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.idle, e.prev, e.next = false, nil, nil
}

// backoffState is one dial-failure cache entry.
type backoffState struct {
	failures int
	until    time.Time
}

func newPool(l *Layer, cfg PoolConfig) *pool {
	return &pool{
		layer:   l,
		cfg:     cfg.resolve(),
		entries: make(map[string]*poolEntry),
		backoff: make(map[string]*backoffState),
	}
}

// WithSession runs fn with a live pooled session to the device. The
// session is shared with concurrent operations on the same device and
// stays open afterwards for reuse. A cached session whose reader has died
// is evicted and re-dialed before fn runs; if the session breaks while fn
// is running, the pool transparently re-dials once and retries fn. A
// device whose dial just failed is not dialed again until its backoff
// window expires — the call fails fast with an error matching ErrBackoff
// (and ErrUnreachable).
func (l *Layer) WithSession(ctx context.Context, id string, fn func(*Session) error) error {
	return l.pool.with(ctx, id, fn)
}

func (p *pool) with(ctx context.Context, id string, fn func(*Session) error) error {
	// Liveness gate + circuit breaker first: a Down or breaker-open
	// device is shed before any pool or dial work.
	if err := p.layer.shed(id); err != nil {
		return err
	}
	opErr := p.run(ctx, id, fn)
	// Every operation that got past the gate reports evidence to the
	// failure detector and the breaker (no-contact errors are filtered
	// inside note).
	p.layer.note(id, opErr)
	return opErr
}

func (p *pool) run(ctx context.Context, id string, fn func(*Session) error) error {
	if p.disabled() {
		s, err := p.layer.Connect(ctx, id)
		if err != nil {
			return err
		}
		defer s.Close()
		return fn(s)
	}
	for attempt := 0; ; attempt++ {
		e, s, err := p.acquire(ctx, id)
		if err != nil {
			return err
		}
		opErr := fn(s)
		broken := !s.alive()
		p.release(e, s, broken)
		// A session that died under fn gets one transparent redial; if
		// that dial fails too, acquire records the backoff entry and the
		// next attempt fails fast.
		if opErr != nil && broken && attempt == 0 {
			continue
		}
		return opErr
	}
}

func (p *pool) disabled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfg.MaxSessions < 0
}

// acquire returns a live session for id, reusing the cached one when its
// reader is still alive and dialing otherwise. The caller must hand the
// returned entry back via release.
func (p *pool) acquire(ctx context.Context, id string) (*poolEntry, *Session, error) {
	m := &p.layer.metrics

	p.mu.Lock()
	victims := p.reapIdleLocked()
	e := p.entries[id]
	if e == nil {
		e = &poolEntry{id: id}
		p.entries[id] = e
	}
	e.refs++
	p.idle.remove(e)
	// A live cached session needs no dial serialization.
	s := p.hitLocked(e)
	p.mu.Unlock()
	closeAll(victims)
	if s != nil {
		return e, s, nil
	}

	e.dialMu.Lock()
	defer e.dialMu.Unlock()

	p.mu.Lock()
	// Another borrower may have dialed while this one waited.
	if s := p.hitLocked(e); s != nil {
		p.mu.Unlock()
		return e, s, nil
	}
	if s := e.sess; s != nil {
		// The cached session's reader has died: evict it and re-dial below.
		p.evictLocked(e, &m.PoolBroken)
		p.mu.Unlock()
		s.Close()
		p.mu.Lock()
	}
	if wait, suppressed := p.backoffRemainingLocked(id); suppressed {
		p.releaseLocked(e)
		m.SuppressedDials.Add(1)
		p.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %w: %s suppressed for another %v", ErrUnreachable, ErrBackoff, id, wait)
	}
	victims = p.makeRoomLocked()
	p.mu.Unlock()
	closeAll(victims)

	s, err := p.layer.Connect(ctx, id)

	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.noteDialFailureLocked(id, err)
		p.releaseLocked(e)
		return nil, nil, err
	}
	delete(p.backoff, id)
	e.sess = s
	e.lastUsed = p.layer.clk.Now()
	m.PoolMisses.Add(1)
	m.OpenSessions.Add(1)
	return e, s, nil
}

// hitLocked returns e's cached session if its reader goroutine is still
// running, counting a pool hit, and nil otherwise.
func (p *pool) hitLocked(e *poolEntry) *Session {
	s := e.sess
	if s == nil || !s.alive() {
		return nil
	}
	e.lastUsed = p.layer.clk.Now()
	p.layer.metrics.PoolHits.Add(1)
	return s
}

// release hands a borrowed session back. A session that broke during the
// operation is evicted so the next borrower re-dials instead of failing
// on a dead connection.
func (p *pool) release(e *poolEntry, s *Session, broken bool) {
	var toClose *Session
	p.mu.Lock()
	if broken && e.sess == s {
		p.evictLocked(e, &p.layer.metrics.PoolBroken)
		toClose = s
	}
	e.lastUsed = p.layer.clk.Now()
	p.releaseLocked(e)
	p.mu.Unlock()
	if toClose != nil {
		toClose.Close()
	}
}

// releaseLocked drops one reference. The last borrower's release puts a
// session-holding entry on the idle list and garbage-collects a
// sessionless one (e.g. an unknown or unreachable device) so the entry
// map cannot grow without bound.
func (p *pool) releaseLocked(e *poolEntry) {
	e.refs--
	if e.refs > 0 {
		return
	}
	if e.sess != nil {
		p.idle.pushBack(e)
	} else {
		delete(p.entries, e.id)
	}
}

// evictLocked detaches an entry's session and updates counters. The
// caller closes the session outside pool.mu.
func (p *pool) evictLocked(e *poolEntry, counter *atomic.Int64) {
	if e.sess == nil {
		return
	}
	e.sess = nil
	p.idle.remove(e)
	counter.Add(1)
	p.layer.metrics.OpenSessions.Add(-1)
	if e.refs == 0 {
		delete(p.entries, e.id)
	}
}

// reapIdleLocked evicts sessions idle past the TTL and returns them for
// closing outside the lock. Reaping is lazy — it runs on every acquire
// and on explicit ReapIdleSessions calls — so it needs no background
// goroutine and stays deterministic under manual test clocks. The idle
// list is in release order, so the scan stops at the first session still
// inside its TTL.
func (p *pool) reapIdleLocked() []*Session {
	if p.cfg.IdleTTL < 0 {
		return nil
	}
	now := p.layer.clk.Now()
	var victims []*Session
	for e := p.idle.front; e != nil && now.Sub(e.lastUsed) > p.cfg.IdleTTL; e = p.idle.front {
		victims = append(victims, e.sess)
		p.evictLocked(e, &p.layer.metrics.PoolExpired)
	}
	return victims
}

// makeRoomLocked enforces a positive MaxSessions cap by evicting
// least-recently-used idle sessions. Sessions with live borrowers are
// never evicted; if every session is busy the cap is exceeded rather than
// blocking the caller (a soft cap).
func (p *pool) makeRoomLocked() []*Session {
	if p.cfg.MaxSessions <= 0 {
		return nil
	}
	var victims []*Session
	for p.layer.metrics.OpenSessions.Load() >= int64(p.cfg.MaxSessions) && p.idle.front != nil {
		lru := p.idle.front
		victims = append(victims, lru.sess)
		p.evictLocked(lru, &p.layer.metrics.PoolEvictions)
	}
	return victims
}

// backoffRemainingLocked reports whether id is inside its dial-failure
// backoff window and, if so, for how much longer.
func (p *pool) backoffRemainingLocked(id string) (time.Duration, bool) {
	b := p.backoff[id]
	if b == nil {
		return 0, false
	}
	wait := b.until.Sub(p.layer.clk.Now())
	if wait <= 0 {
		return 0, false
	}
	return wait, true
}

// noteDialFailureLocked records a failed dial in the backoff cache,
// doubling the suppression window per consecutive failure. Caller
// cancellation and unknown devices are not the device's fault and do not
// enter backoff.
func (p *pool) noteDialFailureLocked(id string, err error) {
	if p.cfg.BackoffBase < 0 || errors.Is(err, ErrUnknownDevice) || errors.Is(err, context.Canceled) {
		return
	}
	b := p.backoff[id]
	if b == nil {
		b = &backoffState{}
		p.backoff[id] = b
	}
	b.failures++
	shift := b.failures - 1
	if shift > 16 {
		shift = 16
	}
	window := p.cfg.BackoffBase << uint(shift)
	if window > p.cfg.BackoffMax || window <= 0 {
		window = p.cfg.BackoffMax
	}
	b.until = p.layer.clk.Now().Add(window)
}

// forget tears down one device's pool state: its session (if any) is
// closed and its backoff entry dropped. Borrowed sessions are detached —
// in-flight operations finish on the dying connection and fail naturally.
func (p *pool) forget(id string) {
	var victim *Session
	p.mu.Lock()
	if e := p.entries[id]; e != nil && e.sess != nil {
		victim = e.sess
		p.evictLocked(e, &p.layer.metrics.PoolDrained)
	}
	delete(p.backoff, id)
	p.mu.Unlock()
	if victim != nil {
		victim.Close()
	}
}

// clearBackoff drops one device's dial-failure cache entry so the next
// operation dials immediately.
func (p *pool) clearBackoff(id string) {
	p.mu.Lock()
	delete(p.backoff, id)
	p.mu.Unlock()
}

// drain closes every pooled session and clears the backoff cache. The
// pool stays usable: the next operation simply re-dials.
func (p *pool) drain() []*Session {
	p.mu.Lock()
	var victims []*Session
	for _, e := range p.entries {
		if e.sess != nil {
			victims = append(victims, e.sess)
			p.evictLocked(e, &p.layer.metrics.PoolDrained)
		}
	}
	p.backoff = make(map[string]*backoffState)
	p.mu.Unlock()
	return victims
}

// configure swaps the pool tuning, draining sessions opened under the old
// configuration.
func (p *pool) configure(cfg PoolConfig) {
	closeAll(p.drain())
	p.mu.Lock()
	p.cfg = cfg.resolve()
	p.mu.Unlock()
}

func closeAll(victims []*Session) {
	for _, s := range victims {
		s.Close()
	}
}

// ConfigurePool replaces the layer's transport-pool tuning. Sessions
// opened under the previous configuration are drained.
func (l *Layer) ConfigurePool(cfg PoolConfig) { l.pool.configure(cfg) }

// ReapIdleSessions evicts pooled sessions idle longer than the pool's
// IdleTTL on the layer's clock and reports how many it closed. Reaping
// also happens lazily on every pooled operation; this entry point exists
// for callers that want deterministic reclamation (tests, shutdown paths).
func (l *Layer) ReapIdleSessions() int {
	l.pool.mu.Lock()
	victims := l.pool.reapIdleLocked()
	l.pool.mu.Unlock()
	closeAll(victims)
	return len(victims)
}

// Close drains the transport pool: every pooled session is closed and the
// dial-failure cache cleared. The layer remains usable afterwards — the
// next operation re-dials — so Close is safe to call on engine shutdown
// even when ad-hoc queries may still follow.
func (l *Layer) Close() error {
	closeAll(l.pool.drain())
	return nil
}
