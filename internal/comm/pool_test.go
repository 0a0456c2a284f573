package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aorta/internal/device"
	"aorta/internal/device/camera"
	"aorta/internal/device/mote"
	"aorta/internal/geo"
	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/vclock"
)

// poolFarm is a restartable device farm for pool tests: unlike newFarm it
// keeps server handles so tests can kill and revive individual devices,
// and it accepts any clock so backoff and TTL tests can run on a manual
// one.
type poolFarm struct {
	t       *testing.T
	layer   *Layer
	network *netsim.Network
	clk     vclock.Clock
	models  map[string]device.Model
	servers map[string]*device.Server
}

func newPoolFarm(t *testing.T, clk vclock.Clock) *poolFarm {
	t.Helper()
	network := netsim.NewNetwork(clk, 1)
	reg, err := profile.DefaultRegistry()
	if err != nil {
		t.Fatal(err)
	}
	f := &poolFarm{
		t:       t,
		layer:   New(network, clk, reg),
		network: network,
		clk:     clk,
		models:  make(map[string]device.Model),
		servers: make(map[string]*device.Server),
	}
	for i, pos := range []geo.Point{{X: 2, Y: 1}, {X: 5, Y: 2}} {
		m := mote.New(fmt.Sprintf("mote-%d", i+1), pos, clk, mote.Config{Depth: i + 1, Seed: int64(i)})
		f.add(m, map[string]any{"loc": pos, "depth": i + 1})
	}
	cam := camera.New("camera-1", geo.DefaultMount(geo.Point{Z: 3}, 0), clk)
	f.add(cam, map[string]any{"ip": "camera-1", "loc": geo.Point{Z: 3}})
	t.Cleanup(func() {
		_ = f.layer.Close()
		for _, srv := range f.servers {
			srv.Close()
		}
	})
	return f
}

func (f *poolFarm) add(m device.Model, static map[string]any) {
	f.t.Helper()
	f.models[m.ID()] = m
	if err := f.layer.Register(DeviceInfo{ID: m.ID(), Type: m.Type(), Addr: m.ID(), Static: static}); err != nil {
		f.t.Fatal(err)
	}
	f.start(m.ID())
}

// start (re)starts the device server for id.
func (f *poolFarm) start(id string) {
	f.t.Helper()
	ln, err := f.network.Listen(id)
	if err != nil {
		f.t.Fatal(err)
	}
	f.servers[id] = device.Serve(ln, f.models[id])
}

// kill stops id's server, closing its listener and every live connection —
// the device dies mid-session.
func (f *poolFarm) kill(id string) {
	f.t.Helper()
	f.servers[id].Close()
}

func (f *poolFarm) metrics() *Metrics { return f.layer.Metrics() }

// TestPoolReuseAcrossProbes: consecutive one-shot operations on the same
// device must share one dial (the headline claim of the pooled transport).
func TestPoolReuseAcrossProbes(t *testing.T) {
	f := newPoolFarm(t, vclock.NewScaled(100))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.metrics().Dials.Load(); got != 1 {
		t.Errorf("Dials = %d after 3 probes, want 1", got)
	}
	if hits := f.metrics().PoolHits.Load(); hits != 2 {
		t.Errorf("PoolHits = %d, want 2", hits)
	}
	if open := f.metrics().OpenSessions.Load(); open != 1 {
		t.Errorf("OpenSessions = %d, want 1", open)
	}
}

// TestPoolSharedAcrossOperationKinds: probe, attribute read and action
// execution all ride the same pooled session.
func TestPoolSharedAcrossOperationKinds(t *testing.T) {
	f := newPoolFarm(t, vclock.NewScaled(100))
	ctx := context.Background()
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.layer.ReadAttr(ctx, "mote-1", "battery"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.layer.Exec(ctx, "mote-1", "beep", nil); err != nil {
		t.Fatal(err)
	}
	if got := f.metrics().Dials.Load(); got != 1 {
		t.Errorf("Dials = %d across probe+read+exec, want 1", got)
	}
}

// TestConcurrentScansShareSessions: many concurrent table scans must not
// race dials — each device is dialed exactly once and every scanner
// shares the live session. Run with -race.
func TestConcurrentScansShareSessions(t *testing.T) {
	f := newPoolFarm(t, vclock.NewScaled(100))
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tuples, report, err := f.layer.Scan(ctx, "sensor", nil)
			if err != nil {
				t.Error(err)
				return
			}
			if len(tuples) != 2 || report.Skipped != 0 {
				t.Errorf("scan: %d tuples, %d skipped", len(tuples), report.Skipped)
			}
		}()
	}
	wg.Wait()
	if got := f.metrics().Dials.Load(); got != 2 {
		t.Errorf("Dials = %d for 8 concurrent scans of 2 motes, want 2", got)
	}
}

// TestBrokenSessionTransparentRedial: a device killed mid-operation breaks
// the pooled session; the pool must evict it and transparently re-dial
// once, so the operation still succeeds against the revived device.
func TestBrokenSessionTransparentRedial(t *testing.T) {
	f := newPoolFarm(t, vclock.NewScaled(100))
	ctx := context.Background()
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err := f.layer.WithSession(ctx, "mote-1", func(s *Session) error {
		calls++
		if calls == 1 {
			// The device dies under us and comes straight back: the
			// cached session is broken but the device is dialable again.
			f.kill("mote-1")
			f.start("mote-1")
			_, err := s.Probe(ctx)
			return err
		}
		_, err := s.Probe(ctx)
		return err
	})
	if err != nil {
		t.Fatalf("WithSession after mid-session kill: %v", err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (original + one transparent retry)", calls)
	}
	if got := f.metrics().Dials.Load(); got != 2 {
		t.Errorf("Dials = %d, want 2 (initial + one redial)", got)
	}
	if broken := f.metrics().PoolBroken.Load(); broken != 1 {
		t.Errorf("PoolBroken = %d, want 1", broken)
	}
}

// TestBrokenSessionEvictedOnNextAcquire: a session whose device died while
// idle fails the liveness check on the next acquire and is replaced by a
// fresh dial — callers never see the dead connection.
func TestBrokenSessionEvictedOnNextAcquire(t *testing.T) {
	f := newPoolFarm(t, vclock.NewScaled(100))
	ctx := context.Background()
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatal(err)
	}
	f.kill("mote-1")
	f.start("mote-1")
	// Let the dead session's reader goroutine observe the closed pipe.
	time.Sleep(10 * time.Millisecond)
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatalf("probe after device restart: %v", err)
	}
	if got := f.metrics().Dials.Load(); got != 2 {
		t.Errorf("Dials = %d, want 2", got)
	}
	if broken := f.metrics().PoolBroken.Load(); broken != 1 {
		t.Errorf("PoolBroken = %d, want 1", broken)
	}
}

// TestDialBackoffSuppressesAndRecovers: a dead device enters backoff after
// a failed dial; until the window expires the pool refuses to dial it
// (scans skip it without network traffic, preserving network data
// independence), and once it expires the device is dialed again.
func TestDialBackoffSuppressesAndRecovers(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_000_000, 0))
	f := newPoolFarm(t, clk)
	f.layer.ConfigurePool(PoolConfig{BackoffBase: time.Second})
	ctx := context.Background()

	f.network.SetLink("mote-1", netsim.LinkConfig{Down: true})
	_, err := f.layer.Probe(ctx, "mote-1")
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("probe of down device: %v, want ErrUnreachable", err)
	}
	if d, df := f.metrics().Dials.Load(), f.metrics().DialFailures.Load(); d != 1 || df != 1 {
		t.Fatalf("Dials = %d, DialFailures = %d, want 1, 1", d, df)
	}

	// Inside the backoff window: no dial is attempted at all.
	_, err = f.layer.Probe(ctx, "mote-1")
	if !errors.Is(err, ErrBackoff) || !errors.Is(err, ErrUnreachable) {
		t.Fatalf("probe in backoff: %v, want ErrBackoff and ErrUnreachable", err)
	}
	if got := f.metrics().Dials.Load(); got != 1 {
		t.Errorf("Dials = %d during backoff, want still 1", got)
	}
	if sup := f.metrics().SuppressedDials.Load(); sup != 1 {
		t.Errorf("SuppressedDials = %d, want 1", sup)
	}

	// A table scan skips the backed-off device without dialing; the other
	// mote still produces its tuple.
	tuples, report, err := f.layer.Scan(ctx, "sensor", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || report.Skipped != 1 || report.InBackoff != 1 {
		t.Errorf("scan during backoff: %d tuples, report %+v; want 1 tuple, 1 skipped, 1 in backoff", len(tuples), report)
	}

	// The device recovers and the window expires: dialing resumes.
	f.network.SetLink("mote-1", netsim.LinkConfig{})
	clk.Advance(1100 * time.Millisecond)
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatalf("probe after backoff expiry: %v", err)
	}
}

// TestDialBackoffExponentialGrowth: consecutive dial failures double the
// suppression window.
func TestDialBackoffExponentialGrowth(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_000_000, 0))
	f := newPoolFarm(t, clk)
	f.layer.ConfigurePool(PoolConfig{BackoffBase: time.Second})
	ctx := context.Background()
	f.network.SetLink("mote-1", netsim.LinkConfig{Down: true})

	// First failure: 1s window.
	if _, err := f.layer.Probe(ctx, "mote-1"); !errors.Is(err, ErrUnreachable) {
		t.Fatal(err)
	}
	clk.Advance(1500 * time.Millisecond)
	// Window expired: a real dial happens and fails again — 2s window now.
	if _, err := f.layer.Probe(ctx, "mote-1"); errors.Is(err, ErrBackoff) {
		t.Fatal("second probe should have dialed, not been suppressed")
	}
	if got := f.metrics().DialFailures.Load(); got != 2 {
		t.Fatalf("DialFailures = %d, want 2", got)
	}
	// 1.5s into the doubled window: still suppressed.
	clk.Advance(1500 * time.Millisecond)
	if _, err := f.layer.Probe(ctx, "mote-1"); !errors.Is(err, ErrBackoff) {
		t.Fatalf("probe 1.5s into 2s window: %v, want ErrBackoff", err)
	}
	// Past it: dialing resumes.
	clk.Advance(time.Second)
	if _, err := f.layer.Probe(ctx, "mote-1"); errors.Is(err, ErrBackoff) {
		t.Fatal("probe after doubled window should have dialed")
	}
	if got := f.metrics().DialFailures.Load(); got != 3 {
		t.Errorf("DialFailures = %d, want 3", got)
	}
}

// TestIdleSessionsReaped: sessions idle past the TTL are reclaimed on the
// layer's clock, and the next operation simply re-dials.
func TestIdleSessionsReaped(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_000_000, 0))
	f := newPoolFarm(t, clk)
	f.layer.ConfigurePool(PoolConfig{IdleTTL: 30 * time.Second})
	ctx := context.Background()
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(29 * time.Second)
	if n := f.layer.ReapIdleSessions(); n != 0 {
		t.Fatalf("reaped %d sessions before TTL, want 0", n)
	}
	clk.Advance(2 * time.Second)
	if n := f.layer.ReapIdleSessions(); n != 1 {
		t.Fatalf("reaped %d sessions after TTL, want 1", n)
	}
	if exp, open := f.metrics().PoolExpired.Load(), f.metrics().OpenSessions.Load(); exp != 1 || open != 0 {
		t.Errorf("PoolExpired = %d, OpenSessions = %d, want 1, 0", exp, open)
	}
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatalf("probe after reap: %v", err)
	}
	if got := f.metrics().Dials.Load(); got != 2 {
		t.Errorf("Dials = %d, want 2 (reap forced a re-dial)", got)
	}
}

// TestIdleReapFollowsLastUse: reaping goes by last release, not by dial
// order — a session reused since it was dialed survives while one dialed
// after it but left idle expires.
func TestIdleReapFollowsLastUse(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_000_000, 0))
	f := newPoolFarm(t, clk)
	f.layer.ConfigurePool(PoolConfig{IdleTTL: 30 * time.Second})
	ctx := context.Background()
	for _, id := range []string{"mote-1", "mote-2", "camera-1"} {
		if _, err := f.layer.Probe(ctx, id); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Second)
	}
	// t = 30 s: reuse mote-1, the first session dialed.
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatal(err)
	}
	// t = 41 s: mote-2 has been idle 31 s, camera-1 21 s, mote-1 11 s.
	clk.Advance(11 * time.Second)
	if n := f.layer.ReapIdleSessions(); n != 1 {
		t.Fatalf("reaped %d sessions, want 1 (mote-2)", n)
	}
	dials := f.metrics().Dials.Load()
	for _, id := range []string{"mote-1", "camera-1"} {
		if _, err := f.layer.Probe(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.metrics().Dials.Load(); got != dials {
		t.Errorf("Dials %d -> %d re-probing the surviving sessions, want no dial", dials, got)
	}
	if _, err := f.layer.Probe(ctx, "mote-2"); err != nil {
		t.Fatal(err)
	}
	if got := f.metrics().Dials.Load(); got != dials+1 {
		t.Errorf("Dials = %d after probing reaped mote-2, want %d", got, dials+1)
	}
}

// TestPoolCapacityLRUEviction: the session cap evicts the
// least-recently-used idle session, never a busy one.
func TestPoolCapacityLRUEviction(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_000_000, 0))
	f := newPoolFarm(t, clk)
	f.layer.ConfigurePool(PoolConfig{MaxSessions: 2})
	ctx := context.Background()
	for _, id := range []string{"mote-1", "mote-2", "camera-1"} {
		if _, err := f.layer.Probe(ctx, id); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
	}
	if open := f.metrics().OpenSessions.Load(); open != 2 {
		t.Errorf("OpenSessions = %d with cap 2, want 2", open)
	}
	if ev := f.metrics().PoolEvictions.Load(); ev != 1 {
		t.Errorf("PoolEvictions = %d, want 1", ev)
	}
	// mote-1 was the LRU victim: probing it again must re-dial, while
	// mote-2 (kept, then becomes LRU and is evicted for mote-1's slot)...
	dialsBefore := f.metrics().Dials.Load()
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatal(err)
	}
	if got := f.metrics().Dials.Load(); got != dialsBefore+1 {
		t.Errorf("Dials = %d after re-probing evicted mote-1, want %d", got, dialsBefore+1)
	}
	// camera-1 survived both evictions (most recently used): no new dial.
	dialsBefore = f.metrics().Dials.Load()
	if _, err := f.layer.Probe(ctx, "camera-1"); err != nil {
		t.Fatal(err)
	}
	if got := f.metrics().Dials.Load(); got != dialsBefore {
		t.Errorf("probing camera-1 dialed again (Dials %d -> %d), want cache hit", dialsBefore, got)
	}
}

// TestLayerCloseDrainsPool: Close reclaims every pooled session but leaves
// the layer usable — the next operation re-dials.
func TestLayerCloseDrainsPool(t *testing.T) {
	f := newPoolFarm(t, vclock.NewScaled(100))
	ctx := context.Background()
	for _, id := range []string{"mote-1", "mote-2"} {
		if _, err := f.layer.Probe(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.layer.Close(); err != nil {
		t.Fatal(err)
	}
	if drained, open := f.metrics().PoolDrained.Load(), f.metrics().OpenSessions.Load(); drained != 2 || open != 0 {
		t.Errorf("PoolDrained = %d, OpenSessions = %d, want 2, 0", drained, open)
	}
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatalf("probe after Close: %v", err)
	}
	if got := f.metrics().Dials.Load(); got != 3 {
		t.Errorf("Dials = %d, want 3", got)
	}
}

// TestPoolDisabledOneShot: MaxSessions < 0 restores the pre-pool one-shot
// behaviour — every operation dials and closes its own connection.
func TestPoolDisabledOneShot(t *testing.T) {
	f := newPoolFarm(t, vclock.NewScaled(100))
	f.layer.ConfigurePool(PoolConfig{MaxSessions: -1})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
			t.Fatal(err)
		}
	}
	m := f.metrics()
	if got := m.Dials.Load(); got != 2 {
		t.Errorf("Dials = %d with pooling disabled, want 2", got)
	}
	if hits, open := m.PoolHits.Load(), m.OpenSessions.Load(); hits != 0 || open != 0 {
		t.Errorf("PoolHits = %d, OpenSessions = %d with pooling disabled, want 0, 0", hits, open)
	}
}

// TestBackoffClearedByConfigure: reconfiguring the pool drains the
// dial-failure cache along with the sessions.
func TestBackoffClearedByConfigure(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_000_000, 0))
	f := newPoolFarm(t, clk)
	f.layer.ConfigurePool(PoolConfig{BackoffBase: time.Hour})
	ctx := context.Background()
	f.network.SetLink("mote-1", netsim.LinkConfig{Down: true})
	if _, err := f.layer.Probe(ctx, "mote-1"); !errors.Is(err, ErrUnreachable) {
		t.Fatal(err)
	}
	if _, err := f.layer.Probe(ctx, "mote-1"); !errors.Is(err, ErrBackoff) {
		t.Fatalf("expected backoff, got %v", err)
	}
	f.network.SetLink("mote-1", netsim.LinkConfig{})
	f.layer.ConfigurePool(PoolConfig{BackoffBase: time.Hour})
	if _, err := f.layer.Probe(ctx, "mote-1"); err != nil {
		t.Fatalf("probe after reconfigure: %v", err)
	}
}
