package vclock

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestWithTimeoutFires(t *testing.T) {
	clk := NewScaled(1000)
	ctx, cancel := WithTimeout(context.Background(), clk, 2*time.Second)
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("timeout never fired (2 virtual seconds at 1000x)")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, context.DeadlineExceeded) {
		t.Errorf("cause = %v, want DeadlineExceeded", cause)
	}
}

func TestWithTimeoutCancelledEarly(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	ctx, cancel := WithTimeout(context.Background(), clk, time.Hour)
	select {
	case <-ctx.Done():
		t.Fatal("done before cancel")
	default:
	}
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("cancel did not end the context")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, context.Canceled) {
		t.Errorf("cause = %v, want Canceled", cause)
	}
	// Idempotent cancel.
	cancel()
}

func TestWithTimeoutParentCancellation(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	parent, parentCancel := context.WithCancel(context.Background())
	ctx, cancel := WithTimeout(parent, clk, time.Hour)
	defer cancel()
	parentCancel()
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("parent cancellation not propagated")
	}
}

func TestWithTimeoutManualClock(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	ctx, cancel := WithTimeout(context.Background(), clk, 10*time.Second)
	defer cancel()
	if n := clk.Waiters(); n != 1 {
		t.Fatalf("Waiters = %d, want the timeout's timer", n)
	}
	clk.Advance(9 * time.Second)
	select {
	case <-ctx.Done():
		t.Fatal("fired before the deadline")
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(2 * time.Second)
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("never fired after Advance past deadline")
	}
}

// TestWithTimeoutCancelRemovesManualWaiter: cancelling a pending timeout
// takes its timer off a manual clock, so nothing is left to fire.
func TestWithTimeoutCancelRemovesManualWaiter(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	for i := 0; i < 10; i++ {
		_, cancel := WithTimeout(context.Background(), clk, time.Hour)
		cancel()
	}
	settledGoroutines(-1)
	if n := clk.Waiters(); n != 0 {
		t.Fatalf("Waiters = %d after cancelling every timeout, want 0", n)
	}
}

// TestWithTimeoutStartsNoGoroutine: a pending timeout on the wall or a
// scaled clock holds no goroutine, and none outlives its cancel.
func TestWithTimeoutStartsNoGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name string
		clk  Clock
	}{{"real", Real{}}, {"scaled", NewScaled(100)}} {
		t.Run(tc.name, func(t *testing.T) {
			base := settledGoroutines(-1)
			const n = 100
			cancels := make([]context.CancelFunc, n)
			for i := range cancels {
				_, cancels[i] = WithTimeout(context.Background(), tc.clk, time.Hour)
			}
			// A small tolerance absorbs unrelated runtime goroutines; one
			// goroutine per timeout would add n.
			if grew := runtime.NumGoroutine() - base; grew > 5 {
				t.Errorf("%d pending timeouts hold %d goroutines", n, grew)
			}
			for _, cancel := range cancels {
				cancel()
			}
			if left := settledGoroutines(base) - base; left > 0 {
				t.Errorf("%d goroutines outlive cancel", left)
			}
		})
	}
}

// settledGoroutines waits up to a second for the goroutine count to drop
// to target (or, with target < 0, to stop changing) and returns it.
func settledGoroutines(target int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if (target < 0 && m == n) || (target >= 0 && m <= target) {
			return m
		}
		n = m
	}
	return n
}

// TestManualAfterFunc: a manual timer fires inside the Advance that passes
// its deadline, and stop reports whether it removed a pending one.
func TestManualAfterFunc(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	fired := 0
	stop := clk.AfterFunc(time.Second, func() { fired++ })
	clk.Advance(999 * time.Millisecond)
	if fired != 0 {
		t.Fatal("fired before the deadline")
	}
	clk.Advance(time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d times after the deadline, want 1", fired)
	}
	if stop() {
		t.Error("stop after firing reported a pending timer")
	}
	stop = clk.AfterFunc(time.Second, func() { fired++ })
	if !stop() {
		t.Error("stop of a pending timer reported nothing removed")
	}
	clk.Advance(time.Hour)
	if fired != 1 || clk.Waiters() != 0 {
		t.Errorf("stopped timer: fired = %d, waiters = %d; want 1, 0", fired, clk.Waiters())
	}
}
