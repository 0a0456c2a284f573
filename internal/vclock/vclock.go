// Package vclock provides the clock abstraction used throughout Aorta.
//
// All time-dependent code in the engine, the communication layer and the
// device emulators reads time through a Clock so that empirical studies can
// run against a scaled clock (a "10-minute" workload finishes in seconds)
// and unit tests can run against a fully manual clock.
package vclock

import (
	"context"
	"sync"
	"time"
)

// Clock is the minimal time source Aorta components depend on.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// Since returns the time elapsed since t on this clock.
	Since(t time.Time) time.Duration
	// AfterFunc calls f once d of this clock's time has elapsed. The
	// returned stop cancels the call if it has not happened yet and
	// reports whether it did so. No goroutine waits while the timer is
	// pending.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Real is the wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// AfterFunc implements Clock: f runs on its own goroutine, as with
// time.AfterFunc.
func (Real) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// Scaled is a wall clock that runs factor times faster than real time.
// Durations slept or waited on are divided by the factor; Now advances
// factor times faster than the wall clock. A factor of 60 runs a
// one-minute workload in one second.
type Scaled struct {
	factor float64
	epoch  time.Time // wall-clock epoch
	base   time.Time // virtual epoch
}

var _ Clock = (*Scaled)(nil)

// NewScaled returns a clock that runs factor times faster than wall time.
// factor must be positive; NewScaled panics otherwise because a
// non-positive scale is a programming error, not a runtime condition.
func NewScaled(factor float64) *Scaled {
	if factor <= 0 {
		panic("vclock: scale factor must be positive")
	}
	now := time.Now()
	return &Scaled{factor: factor, epoch: now, base: now}
}

// Factor returns the speed-up factor of the clock.
func (s *Scaled) Factor() float64 { return s.factor }

// Now implements Clock.
func (s *Scaled) Now() time.Time {
	elapsed := time.Since(s.epoch)
	return s.base.Add(time.Duration(float64(elapsed) * s.factor))
}

// Sleep implements Clock.
func (s *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(s.real(d))
}

// After implements Clock.
func (s *Scaled) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.AfterFunc(d, func() { ch <- s.Now() })
	return ch
}

// Since implements Clock.
func (s *Scaled) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// AfterFunc implements Clock: f runs on its own goroutine once d/factor of
// wall time has passed.
func (s *Scaled) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(s.real(d), f).Stop
}

func (s *Scaled) real(d time.Duration) time.Duration {
	rd := time.Duration(float64(d) / s.factor)
	if rd <= 0 && d > 0 {
		rd = time.Nanosecond
	}
	return rd
}

// Manual is a test clock whose time only moves when Advance is called.
// It is safe for concurrent use.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualWaiter
}

// manualWaiter is one pending timer: Advance past at delivers on ch
// (After, Sleep) or calls fn (AfterFunc).
type manualWaiter struct {
	at time.Time
	ch chan time.Time
	fn func()
}

var _ Clock = (*Manual)(nil)

// NewManual returns a manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep implements Clock. It blocks until Advance moves the clock past the
// deadline.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := m.now.Add(d)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.waiters = append(m.waiters, &manualWaiter{at: at, ch: ch})
	return ch
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// AfterFunc implements Clock. f runs synchronously inside the Advance call
// that moves the clock past the deadline, or inside AfterFunc itself when
// d <= 0; stop removes the pending waiter.
func (m *Manual) AfterFunc(d time.Duration, f func()) func() bool {
	if d <= 0 {
		f()
		return func() bool { return false }
	}
	m.mu.Lock()
	w := &manualWaiter{at: m.now.Add(d), fn: f}
	m.waiters = append(m.waiters, w)
	m.mu.Unlock()
	return func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, x := range m.waiters {
			if x == w {
				m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
				return true
			}
		}
		return false
	}
}

// Advance moves the clock forward by d, waking every waiter whose deadline
// has passed.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	remaining := m.waiters[:0]
	var fired []*manualWaiter
	for _, w := range m.waiters {
		if !w.at.After(now) {
			fired = append(fired, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()
	for _, w := range fired {
		if w.fn != nil {
			w.fn()
		} else {
			w.ch <- now
		}
	}
}

// Waiters reports the number of pending timers on the clock: blocked
// sleepers, undelivered After channels and unstopped AfterFunc calls.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// WithTimeout returns a context that is cancelled after d of clk's time.
// Unlike context.WithTimeout it honours scaled and manual clocks, so a
// "2-second" device timeout expires after 2 virtual seconds.
// The returned context's Err is context.Canceled either way; use
// context.Cause to distinguish a timeout (context.DeadlineExceeded) from
// caller cancellation.
//
// The deadline rides clk.AfterFunc and the returned cancel stops it, so a
// request that finishes in time costs one timer and no goroutine.
func WithTimeout(ctx context.Context, clk Clock, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(ctx)
	stop := clk.AfterFunc(d, func() { cancel(context.DeadlineExceeded) })
	return ctx, func() {
		stop()
		cancel(context.Canceled)
	}
}

// SleepCtx sleeps on clk for d but returns early with ctx.Err() if the
// context is cancelled first. It returns nil when the full duration
// elapsed.
func SleepCtx(ctx context.Context, clk Clock, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-clk.After(d):
		return nil
	}
}
