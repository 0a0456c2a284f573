package comm

import (
	"errors"
	"fmt"
	"time"

	"aorta/internal/liveness"
)

// ErrBreakerOpen marks an operation shed by a device's open circuit
// breaker: the device accumulated too many transport failures inside the
// rolling window, so the layer fails fast instead of dialing. Like
// ErrBackoff it also matches ErrUnreachable, preserving network data
// independence — a breaker-shed device simply contributes no tuple.
var ErrBreakerOpen = errors.New("comm: circuit breaker open")

// ErrShed marks an operation shed by the layer's liveness gate: the
// failure detector holds the device Down, so the layer refuses the
// operation without dialing. Also matches ErrUnreachable.
var ErrShed = errors.New("comm: device shed by failure detector")

// allowBreaker asks the device's circuit breaker whether an operation
// may proceed, turning a shed verdict into an ErrBreakerOpen error and a
// BreakerShed count.
func (l *Layer) allowBreaker(id string) error {
	ok, wait := l.breaker.Allow(id)
	if ok {
		return nil
	}
	l.metrics.BreakerShed.Add(1)
	if wait > 0 {
		return fmt.Errorf("%w: %w: %s sheds load for another %v",
			ErrUnreachable, ErrBreakerOpen, id, wait.Round(time.Millisecond))
	}
	return fmt.Errorf("%w: %w: %s half-open trial already in flight", ErrUnreachable, ErrBreakerOpen, id)
}

// recordBreaker feeds one piece of evidence to the device's circuit
// breaker, counting the opens it causes.
func (l *Layer) recordBreaker(id string, alive bool) {
	if l.breaker.Record(id, alive) {
		l.metrics.BreakerOpens.Add(1)
	}
}

// ConfigureBreaker replaces the layer's circuit-breaker tuning, clearing
// any accumulated per-device state. Call it before the layer sees
// concurrent traffic.
func (l *Layer) ConfigureBreaker(cfg liveness.BreakerConfig) {
	l.breaker = liveness.NewBreaker(l.clk, cfg)
}
