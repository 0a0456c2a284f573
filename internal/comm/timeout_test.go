package comm

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"aorta/internal/netsim"
)

// TestRequestTimeoutMidSession: a device that answers the dial but then
// becomes arbitrarily slow must be broken out of by the per-request
// TIMEOUT, not hang the engine (paper §4: "a camera may suffer from
// network connection delay").
func TestRequestTimeoutMidSession(t *testing.T) {
	f := newFarm(t)
	f.layer.SetTimeout("camera", 3*time.Second)
	s, err := f.layer.Connect(context.Background(), "camera-1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// First request on a healthy link succeeds.
	if _, err := s.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The link degrades: every write now takes 10 virtual seconds,
	// exceeding the 3-second TIMEOUT.
	f.network.SetLink("camera-1", netsim.LinkConfig{Latency: 10 * time.Second})
	start := time.Now()
	_, err = s.Probe(context.Background())
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("probe blocked %v wall time; TIMEOUT did not break it", wall)
	}
}

// TestCallerContextBeatsTimeout: explicit caller cancellation is reported
// as the caller's error, not as a device timeout.
func TestCallerContextBeatsTimeout(t *testing.T) {
	f := newFarm(t)
	f.network.SetLink("camera-1", netsim.LinkConfig{Latency: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.layer.Probe(ctx, "camera-1")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if errors.Is(err, ErrTimeout) {
			t.Fatalf("caller cancellation misreported as device timeout: %v", err)
		}
		if err == nil {
			t.Fatal("probe succeeded despite cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled probe never returned")
	}
}

// TestStaleResponsesSkipped: when an earlier request timed out, its late
// response must not be delivered to the next request on the session.
func TestStaleResponsesSkipped(t *testing.T) {
	f := newFarm(t)
	f.layer.SetTimeout("camera", 2*time.Second)
	s, err := f.layer.Connect(context.Background(), "camera-1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Slow the link so the first probe times out but its response still
	// arrives later.
	f.network.SetLink("camera-1", netsim.LinkConfig{Latency: 4 * time.Second})
	if _, err := s.Probe(context.Background()); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first probe err = %v, want timeout", err)
	}
	// Restore the link and let the timed-out request's delayed write and
	// late response drain (they are discarded by the session reader).
	f.network.SetLink("camera-1", netsim.LinkConfig{})
	time.Sleep(100 * time.Millisecond) // 10 virtual seconds at 100×
	res, err := s.Probe(context.Background())
	if err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if res.DeviceID != "camera-1" {
		t.Errorf("second probe result = %+v", res)
	}
}

// TestSessionCloseLeavesNoGoroutines: Close waits for the session's reader
// and writer, including a writer still pushing a timed-out request's
// frame over a slow link, so no session goroutine outlives it.
func TestSessionCloseLeavesNoGoroutines(t *testing.T) {
	// Sessions left by earlier tests die once their device servers close;
	// let them go before taking the baseline.
	base := settledSessionGoroutines(0, 2*time.Second)
	f := newFarm(t)
	f.layer.SetTimeout("camera", time.Second)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		s, err := f.layer.Connect(ctx, "camera-1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Probe(ctx); err != nil {
			t.Fatal(err)
		}
		stuck := i%10 == 0
		if stuck {
			// Each frame write now takes 2 × 60 virtual seconds (1.2 s of
			// wall time), so the probe times out with its frame still
			// being written.
			f.network.SetLink("camera-1", netsim.LinkConfig{Latency: time.Minute})
			if _, err := s.Probe(ctx); !errors.Is(err, ErrTimeout) {
				t.Fatalf("probe over slow link: %v, want ErrTimeout", err)
			}
		}
		s.Close()
		if stuck {
			f.network.SetLink("camera-1", netsim.LinkConfig{})
		}
		// The grace only covers a goroutine's return after it signalled
		// Close; a writer abandoned inside the slow write would stay far
		// longer.
		if n := settledSessionGoroutines(base, 200*time.Millisecond); n > base {
			t.Fatalf("iteration %d: %d session goroutines outlive Close", i, n-base)
		}
	}
}

// settledSessionGoroutines polls the number of goroutines running Session
// code until it is at most target or the grace period ends, and returns
// the last count.
func settledSessionGoroutines(target int, grace time.Duration) int {
	deadline := time.Now().Add(grace)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		n := 0
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "comm.(*Session).") {
				n++
			}
		}
		if n <= target || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
