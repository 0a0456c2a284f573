package comm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"aorta/internal/liveness"
	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/vclock"
)

func newBreakerLayer(t *testing.T, cfg liveness.BreakerConfig) (*Layer, *vclock.Manual) {
	t.Helper()
	clk := vclock.NewManual(time.Unix(1_000_000, 0))
	reg, err := profile.DefaultRegistry()
	if err != nil {
		t.Fatal(err)
	}
	l := New(netsim.NewNetwork(clk, 1), clk, reg)
	l.ConfigureBreaker(cfg)
	return l, clk
}

// The layer's breaker adapter: failures spaced inside the rolling window
// open the device's circuit, and the shed error and the metrics say so.
// The state machine itself is tested in internal/liveness.
func TestBreakerOpensOnWindowedFailures(t *testing.T) {
	l, clk := newBreakerLayer(t, liveness.BreakerConfig{Threshold: 3, Window: 30 * time.Second, Cooldown: 10 * time.Second})
	id := "cam-1"

	for i := 0; i < 2; i++ {
		if err := l.allowBreaker(id); err != nil {
			t.Fatalf("allow before threshold: %v", err)
		}
		l.recordBreaker(id, false)
		clk.Advance(5 * time.Second)
	}
	if err := l.allowBreaker(id); err != nil {
		t.Fatalf("allow before threshold: %v", err)
	}
	l.recordBreaker(id, false) // third failure inside 30s → open

	err := l.allowBreaker(id)
	if err == nil {
		t.Fatal("breaker did not open after 3 failures in the window")
	}
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, ErrUnreachable) {
		t.Errorf("shed error %v does not match ErrBreakerOpen+ErrUnreachable", err)
	}
	if got := l.Metrics().Snapshot().BreakerOpens; got != 1 {
		t.Errorf("BreakerOpens = %d, want 1", got)
	}
	if got := l.Metrics().Snapshot().BreakerShed; got == 0 {
		t.Error("BreakerShed = 0, want > 0")
	}

	// Past the cooldown one half-open trial is admitted; the callers
	// behind it are shed with the trial-in-flight error.
	clk.Advance(11 * time.Second)
	if err := l.allowBreaker(id); err != nil {
		t.Fatalf("half-open trial refused: %v", err)
	}
	if err := l.allowBreaker(id); !errors.Is(err, ErrBreakerOpen) || !strings.Contains(err.Error(), "trial already in flight") {
		t.Errorf("caller behind the trial: %v, want the trial-in-flight ErrBreakerOpen", err)
	}
	// A failed trial re-opens the circuit and counts as an open.
	l.recordBreaker(id, false)
	if got := l.Metrics().Snapshot().BreakerOpens; got != 2 {
		t.Errorf("BreakerOpens after failed trial = %d, want 2", got)
	}
}

func TestBreakerHalfOpenTrial(t *testing.T) {
	l, clk := newBreakerLayer(t, liveness.BreakerConfig{Threshold: 2, Window: 30 * time.Second, Cooldown: 10 * time.Second})
	id := "cam-1"
	l.recordBreaker(id, false)
	l.recordBreaker(id, false) // open
	if err := l.allowBreaker(id); err == nil {
		t.Fatal("breaker not open")
	}
	clk.Advance(11 * time.Second)

	// First caller after the cooldown gets the half-open trial…
	if err := l.allowBreaker(id); err != nil {
		t.Fatalf("half-open trial refused: %v", err)
	}
	// …and concurrent callers are still shed while it is in flight.
	if err := l.allowBreaker(id); err == nil {
		t.Fatal("second caller admitted during half-open trial")
	}
	// Failed trial re-opens for a fresh cooldown.
	l.recordBreaker(id, false)
	if err := l.allowBreaker(id); err == nil {
		t.Fatal("breaker closed after failed trial")
	}
	clk.Advance(11 * time.Second)
	if err := l.allowBreaker(id); err != nil {
		t.Fatalf("second trial refused: %v", err)
	}
	// Successful trial closes the breaker completely.
	l.recordBreaker(id, true)
	for i := 0; i < 3; i++ {
		if err := l.allowBreaker(id); err != nil {
			t.Fatalf("closed breaker shed a call: %v", err)
		}
	}
}

// An abandoned trial (no evidence either way) releases the half-open
// slot instead of wedging the breaker: a cancelled operation is noted as
// silence, and the next caller gets the trial.
func TestBreakerAbandonedTrial(t *testing.T) {
	l, clk := newBreakerLayer(t, liveness.BreakerConfig{Threshold: 1, Window: 30 * time.Second, Cooldown: 5 * time.Second})
	id := "m1"
	l.recordBreaker(id, false) // open
	clk.Advance(6 * time.Second)
	if err := l.allowBreaker(id); err != nil {
		t.Fatalf("trial refused: %v", err)
	}
	l.note(id, context.Canceled)
	if err := l.allowBreaker(id); err != nil {
		t.Fatalf("trial slot not released after abandon: %v", err)
	}
}

func TestBreakerDisabled(t *testing.T) {
	l, _ := newBreakerLayer(t, liveness.BreakerConfig{Threshold: -1})
	for i := 0; i < 20; i++ {
		l.recordBreaker("m1", false)
	}
	if err := l.allowBreaker("m1"); err != nil {
		t.Fatalf("disabled breaker shed a call: %v", err)
	}
	if got := l.Metrics().Snapshot().BreakerOpens; got != 0 {
		t.Errorf("disabled breaker counted %d opens", got)
	}
}

// End-to-end through the pooled path: a gated (Down) device is shed with
// ErrShed before any dial, and the observer receives evidence only for
// operations that reached the network.
func TestGateAndObserverThroughPool(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_000_000, 0))
	network := netsim.NewNetwork(clk, 1)
	reg, err := profile.DefaultRegistry()
	if err != nil {
		t.Fatal(err)
	}
	l := New(network, clk, reg)
	l.ConfigurePool(PoolConfig{BackoffBase: -1})

	down := map[string]bool{}
	var evidence []struct {
		id    string
		alive bool
	}
	l.SetGate(func(id string) bool { return !down[id] })
	l.SetObserver(func(id string, alive bool) {
		evidence = append(evidence, struct {
			id    string
			alive bool
		}{id, alive})
	})
	if err := l.Register(DeviceInfo{ID: "m1", Type: profile.DeviceSensor, Addr: "m1"}); err != nil {
		t.Fatal(err)
	}

	// No listener: the dial fails → dead evidence.
	err = l.WithSession(context.Background(), "m1", func(*Session) error { return nil })
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if len(evidence) != 1 || evidence[0].alive {
		t.Fatalf("evidence = %+v, want one dead observation", evidence)
	}
	dials := l.Metrics().Snapshot().Dials

	// Gate the device Down: the operation is shed without dialing and
	// produces no evidence.
	down["m1"] = true
	err = l.WithSession(context.Background(), "m1", func(*Session) error { return nil })
	if !errors.Is(err, ErrShed) || !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrShed+ErrUnreachable", err)
	}
	if len(evidence) != 1 {
		t.Fatalf("shed operation produced evidence: %+v", evidence)
	}
	if got := l.Metrics().Snapshot().Dials; got != dials {
		t.Errorf("shed operation dialed (dials %d → %d)", dials, got)
	}
	if got := l.Metrics().Snapshot().GateShed; got != 1 {
		t.Errorf("GateShed = %d, want 1", got)
	}
}
