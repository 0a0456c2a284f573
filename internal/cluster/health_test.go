package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"aorta/internal/frontdoor"
	"aorta/internal/netsim"
	"aorta/internal/vclock"
)

// healthHarness wires N stub shards behind a router with an explicit
// health config (clusterHarness keeps the defaults).
func healthHarness(t *testing.T, n int, hcfg HealthConfig, pins map[string]string) (*Router, []*stubShard) {
	t.Helper()
	net := netsim.NewNetwork(vclock.Real{}, 1)
	var infos []ShardInfo
	var stubs []*stubShard
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("shard-%d", i)
		ln, err := net.Listen(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		stub := &stubShard{id: id}
		stub.serve(t, ln)
		stubs = append(stubs, stub)
		infos = append(infos, ShardInfo{ID: id, Addr: id})
	}
	r, err := NewRouter(RouterConfig{Shards: infos, Pins: pins, Dialer: net, Health: hcfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, stubs
}

// TestRetireRacesFanout: retiring a shard while a fan-out statement is
// in flight on it must fail that shard's slice typed — "partial" with
// an "unreachable" code — and never hang or panic. Run under -race.
func TestRetireRacesFanout(t *testing.T) {
	r, stubs := clusterHarness(t, 2)
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	stubs[1].reply = func(stmt string) map[string]any {
		<-block // hold the statement in flight until the test releases it
		return map[string]any{"ok": true}
	}

	done := make(chan *Response, 1)
	go func() {
		done <- asResponse(t, r.Exec(context.Background(), "race",
			`CREATE AQ r AS SELECT s.accel_x FROM sensor s EVERY "5s"`))
	}()

	// Wait until the statement is demonstrably in flight on shard-2,
	// then yank shard-2 out of the membership underneath it.
	deadline := time.Now().Add(5 * time.Second)
	for len(stubs[1].received()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("statement never reached shard-2")
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Retire("shard-2"); err != nil {
		t.Fatal(err)
	}

	select {
	case resp := <-done:
		if resp.OK {
			t.Fatal("fan-out raced by Retire reported success")
		}
		if resp.Code != frontdoor.CodePartial {
			t.Errorf("code = %q, want %q", resp.Code, frontdoor.CodePartial)
		}
		if got := resp.Shards["shard-2"]; got != frontdoor.CodeUnreachable {
			t.Errorf("shards[shard-2] = %q, want %q", got, frontdoor.CodeUnreachable)
		}
		if got := resp.Shards["shard-1"]; got != "ok" {
			t.Errorf("shards[shard-1] = %q, want ok", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fan-out hung after Retire of an in-flight shard")
	}
}

// TestShardConnBackoffShedsAndEvidence: after a dial failure the next
// statement inside the backoff window is shed without a redial and
// without feeding the detector fresh failure evidence; once the window
// passes, the redial runs and the failure streak grows.
func TestShardConnBackoffShedsAndEvidence(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1000, 0))
	net := netsim.NewNetwork(clk, 1)
	r := liveAndDeadShard(t, clk, net, net)

	exec := func() *Response {
		return asResponse(t, r.Exec(context.Background(), "", "SHOW DEVICES"))
	}
	fails := func() int {
		h := r.Health()
		if h == nil {
			t.Fatal("health view disabled")
		}
		return h.Shards["shard-2"].ConsecutiveFailures
	}

	if resp := exec(); resp.OK || resp.Shards["shard-2"] != frontdoor.CodeUnreachable {
		t.Fatalf("first broadcast = %+v, want shard-2 unreachable", resp)
	}
	if got := fails(); got != 1 {
		t.Fatalf("failures after dial error = %d, want 1", got)
	}
	// Inside the backoff window: shed, no dial, no fresh evidence.
	if resp := exec(); resp.OK || resp.Shards["shard-2"] != frontdoor.CodeUnreachable {
		t.Fatalf("shed broadcast = %+v, want shard-2 unreachable", resp)
	}
	if !strings.Contains(strings.ToLower(exec().Error), "backoff") {
		t.Error("shed failure does not name the dial backoff")
	}
	if got := fails(); got != 1 {
		t.Errorf("failures after shed statement = %d, want still 1 (shed carries no evidence)", got)
	}
	if h := r.Health(); !h.Shards["shard-2"].DialBackoff {
		t.Error("health view does not show shard-2 in dial backoff")
	}
	// Past the window the redial runs (and fails) again.
	clk.Advance(10 * time.Second)
	exec()
	if got := fails(); got != 2 {
		t.Errorf("failures after backoff expiry = %d, want 2", got)
	}
}

// serveStub starts a stub shard front door listening at id on net.
func serveStub(t *testing.T, net *netsim.Network, id string, reply func(stmt string) map[string]any) *stubShard {
	t.Helper()
	ln, err := net.Listen(id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	stub := &stubShard{id: id, reply: reply}
	stub.serve(t, ln)
	return stub
}

// liveAndDeadShard builds a router with default health on clk over two
// shards on net: shard-1 is a live stub; shard-2 has no listener, so
// every dial to it fails at once until a test revives it with serveStub.
func liveAndDeadShard(t *testing.T, clk vclock.Clock, net *netsim.Network, dialer netsim.Dialer) *Router {
	t.Helper()
	serveStub(t, net, "shard-1", nil)
	r, err := NewRouter(RouterConfig{
		Shards: []ShardInfo{{ID: "shard-1", Addr: "shard-1"}, {ID: "shard-2", Addr: "shard-2"}},
		Dialer: dialer,
		Health: HealthConfig{Clock: clk},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// tripShard2 sends shard-2 a statement every virtual second until its
// failed dials open the circuit breaker. With the default schedule the
// dials fail at t = 0, 1, 3, 7 and 15 s (each backoff window doubles;
// the statements in between are shed) and the fifth failure opens the
// breaker until t = 25 s, with dial backoff until t = 31 s.
func tripShard2(t *testing.T, r *Router, clk *vclock.Manual) {
	t.Helper()
	for i := 0; i < 60; i++ {
		if err := r.ShardCommand(context.Background(), "shard-2", "SHOW DEVICES"); err == nil {
			t.Fatal("statement to the dead shard-2 succeeded")
		}
		if r.Health().Shards["shard-2"].BreakerOpen {
			if i != 15 {
				t.Fatalf("breaker opened at t = %d s, want 15 s", i)
			}
			return
		}
		clk.Advance(time.Second)
	}
	t.Fatal("shard-2's breaker never opened")
}

// TestShardBreaker: the router's shard breaker policy under the default
// health config — threshold 5 failures in a 30 s window, 10 s cooldown,
// one half-open trial — and no breaker at all when health is disabled.
func TestShardBreaker(t *testing.T) {
	clk := vclock.NewManual(time.Unix(2000, 0))
	net := netsim.NewNetwork(clk, 1)
	shards := []ShardInfo{{ID: "shard-1", Addr: "shard-1"}, {ID: "shard-2", Addr: "shard-2"}}
	r, err := NewRouter(RouterConfig{Shards: shards, Dialer: net, Health: HealthConfig{Clock: clk}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	allow := func(id string) bool { ok, _ := r.brk.Allow(id); return ok }

	for i := 0; i < 4; i++ {
		r.brk.Record("shard-1", false)
		clk.Advance(time.Second)
	}
	if !allow("shard-1") {
		t.Fatal("breaker open below threshold")
	}
	r.brk.Abandon("shard-1")
	r.brk.Record("shard-1", false) // fifth failure inside the window, t = 4 s
	clk.Advance(time.Second)
	if allow("shard-1") || !r.Health().Shards["shard-1"].BreakerOpen {
		t.Fatal("breaker closed after threshold failures inside the window")
	}
	// Cooldown: one half-open trial, not a floodgate.
	clk.Advance(9 * time.Second) // t = 14 s
	if !allow("shard-1") {
		t.Fatal("half-open trial refused after cooldown")
	}
	if allow("shard-1") {
		t.Fatal("second statement admitted during the half-open trial")
	}
	// Failed trial restarts the cooldown.
	clk.Advance(time.Second)
	r.brk.Record("shard-1", false) // t = 15 s
	clk.Advance(time.Second)
	if allow("shard-1") {
		t.Fatal("breaker closed right after a failed half-open trial")
	}
	clk.Advance(9 * time.Second) // t = 25 s
	if !allow("shard-1") {
		t.Fatal("no new trial after the restarted cooldown")
	}
	r.brk.Record("shard-1", true)
	if !allow("shard-1") || r.Health().Shards["shard-1"].BreakerOpen {
		t.Fatal("breaker still open after a successful trial")
	}

	// Window expiry: old failures age out instead of accumulating.
	for i := 0; i < 4; i++ {
		r.brk.Record("shard-2", false)
		clk.Advance(time.Second)
	}
	clk.Advance(40 * time.Second)
	r.brk.Record("shard-2", false) // the first four aged out
	if !allow("shard-2") {
		t.Error("stale failures outside the window opened the breaker")
	}

	// Disabled health: the breaker never sheds.
	rd, err := NewRouter(RouterConfig{Shards: shards, Dialer: net, Health: HealthConfig{Disabled: true, Clock: clk}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rd.Close)
	for i := 0; i < 20; i++ {
		rd.brk.Record("shard-1", false)
	}
	if ok, _ := rd.brk.Allow("shard-1"); !ok || rd.brk.Open("shard-1") {
		t.Error("disabled health's breaker blocked a statement")
	}
}

// TestShardBreakerTrialShedByBackoff: the half-open trial is admitted
// while the dial backoff is still open, so it is shed without reaching
// the shard. That is not evidence: the trial slot must be released, and
// once the shard is back a statement reaches it within one cooldown plus
// one backoff window instead of the circuit staying open for good.
func TestShardBreakerTrialShedByBackoff(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1000, 0))
	net := netsim.NewNetwork(clk, 1)
	r := liveAndDeadShard(t, clk, net, net)
	tripShard2(t, r, clk)

	clk.Advance(10 * time.Second) // t = 25 s: cooldown over, backoff until 31 s
	err := r.ShardCommand(context.Background(), "shard-2", "SHOW DEVICES")
	if !errors.Is(err, ErrShardShed) || !strings.Contains(err.Error(), "backoff") {
		t.Fatalf("half-open trial inside the backoff window: %v, want a backoff shed", err)
	}

	stub := serveStub(t, net, "shard-2", nil)
	// One default cooldown (10 s) plus the open backoff window (16 s).
	deadline := clk.Now().Add(10*time.Second + 16*time.Second)
	for len(stub.received()) == 0 {
		if !clk.Now().Before(deadline) {
			t.Fatalf("revived shard-2 received nothing within 26 s (health %+v)", r.Health().Shards["shard-2"])
		}
		clk.Advance(time.Second)
		_ = r.ShardCommand(context.Background(), "shard-2", "SHOW DEVICES")
	}
	if h := r.Health().Shards["shard-2"]; h.BreakerOpen || h.DialBackoff || h.ConsecutiveFailures != 0 {
		t.Errorf("after the shard answered, health = %+v, want closed, no backoff, no failures", h)
	}
}

// TestShardBreakerTrialCancelled: the caller of the half-open trial
// gives up while the statement is in flight. Cancellation is not
// evidence, so the next statement gets the trial.
func TestShardBreakerTrialCancelled(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1000, 0))
	net := netsim.NewNetwork(clk, 1)
	r := liveAndDeadShard(t, clk, net, net)
	tripShard2(t, r, clk)

	release := make(chan struct{})
	stub := serveStub(t, net, "shard-2", func(stmt string) map[string]any {
		if stmt == "HOLD" {
			<-release
		}
		return map[string]any{"ok": true}
	})
	clk.Advance(16 * time.Second) // t = 31 s: cooldown and backoff both over

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.ShardCommand(ctx, "shard-2", "HOLD") }()
	for wait := time.Now().Add(5 * time.Second); len(stub.received()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatal("the half-open trial never reached shard-2")
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled trial returned %v, want context.Canceled", err)
	}
	close(release)

	if err := r.ShardCommand(context.Background(), "shard-2", "SHOW DEVICES"); err != nil {
		t.Fatalf("statement after the cancelled trial: %v, want it to get the trial and succeed", err)
	}
	if r.Health().Shards["shard-2"].BreakerOpen {
		t.Error("breaker still open after a successful trial")
	}
}

// TestShardDialAbortedByCallerNotEvidence: a dial the caller's context
// aborts says nothing about the shard, so it neither extends the failure
// streak nor starts a dial backoff.
func TestShardDialAbortedByCallerNotEvidence(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1000, 0))
	net := netsim.NewNetwork(clk, 1)
	r := liveAndDeadShard(t, clk, net, net)
	net.SetLink("shard-2", netsim.LinkConfig{Blackhole: true}) // dials hang until ctx ends

	before := r.Health().Shards["shard-2"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.ShardCommand(ctx, "shard-2", "SHOW DEVICES"); err == nil {
		t.Fatal("statement with a cancelled context succeeded")
	}
	after := r.Health().Shards["shard-2"]
	if after.ConsecutiveFailures != before.ConsecutiveFailures || after.DialBackoff != before.DialBackoff {
		t.Errorf("aborted dial changed shard-2 health from %+v to %+v", before, after)
	}
}

// parkingDialer holds every dial to one address until released.
type parkingDialer struct {
	netsim.Dialer
	addr    string
	parked  chan struct{}
	release chan struct{}
}

func (d *parkingDialer) Dial(ctx context.Context, addr string) (net.Conn, error) {
	if addr != d.addr {
		return d.Dialer.Dial(ctx, addr)
	}
	close(d.parked)
	select {
	case <-d.release:
	case <-ctx.Done():
	}
	return nil, errors.New("parked dial released")
}

// TestHealthNotStalledByDial: while a shard-2 dial is in flight, the
// health view and a statement to shard-1 still return promptly.
func TestHealthNotStalledByDial(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1000, 0))
	net := netsim.NewNetwork(clk, 1)
	d := &parkingDialer{Dialer: net, addr: "shard-2", parked: make(chan struct{}), release: make(chan struct{})}
	r := liveAndDeadShard(t, clk, net, d)

	dialed := make(chan error, 1)
	go func() { dialed <- r.ShardCommand(context.Background(), "shard-2", "SHOW DEVICES") }()
	select {
	case <-d.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the shard-2 dial never started")
	}

	healthDone := make(chan struct{})
	go func() {
		r.Health()
		close(healthDone)
	}()
	stmtDone := make(chan error, 1)
	go func() { stmtDone <- r.ShardCommand(context.Background(), "shard-1", "SHOW DEVICES") }()
	deadline := time.Now().Add(time.Second)
	select {
	case <-healthDone:
	case <-time.After(time.Until(deadline)):
		t.Error("Health() blocked behind the in-flight shard-2 dial")
	}
	select {
	case err := <-stmtDone:
		if err != nil {
			t.Errorf("statement to shard-1: %v", err)
		}
	case <-time.After(time.Until(deadline)):
		t.Error("statement to shard-1 blocked behind the in-flight shard-2 dial")
	}
	close(d.release)
	<-dialed
}

// TestAutoRetireAfterGrace: a shard Down past the grace window is
// retired by the router itself and the handoff hook runs with the
// post-retirement owner map.
func TestAutoRetireAfterGrace(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1000, 0))
	var mu sync.Mutex
	var handoffVictim, handoffOwner string
	hcfg := HealthConfig{
		Clock:       clk,
		AutoRetire:  true,
		GraceWindow: time.Minute,
		Handoff: func(ctx context.Context, victim string, owner func(string) string) (AdoptStats, error) {
			mu.Lock()
			handoffVictim, handoffOwner = victim, owner("m1")
			mu.Unlock()
			return AdoptStats{Devices: 1}, nil
		},
	}
	r, _ := healthHarness(t, 3, hcfg, map[string]string{"m1": "shard-3"})

	// Three consecutive failures: shard-3 goes Down and the grace timer
	// arms. The evidence is fed directly — the wire path has its own tests.
	for i := 0; i < 3; i++ {
		r.observeShard("shard-3", false)
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.Map().Contains("shard-3") {
		if time.Now().After(deadline) {
			t.Fatalf("shard-3 never auto-retired (events: %v)", r.MembershipEvents())
		}
		clk.Advance(2 * time.Minute)
		time.Sleep(2 * time.Millisecond)
	}

	retireDeadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		victim, owner := handoffVictim, handoffOwner
		mu.Unlock()
		if victim != "" {
			if victim != "shard-3" {
				t.Fatalf("handoff victim = %q, want shard-3", victim)
			}
			if owner == "shard-3" || owner == "" {
				t.Fatalf("handoff owner(m1) = %q, want a survivor", owner)
			}
			break
		}
		if time.Now().After(retireDeadline) {
			t.Fatal("handoff hook never ran after auto-retire")
		}
		time.Sleep(2 * time.Millisecond)
	}

	var sawRetire, sawHandoff bool
	for _, ev := range r.MembershipEvents() {
		if ev.Shard == "shard-3" && ev.Action == "auto-retired" {
			sawRetire = true
		}
		if ev.Shard == "shard-3" && ev.Action == "handoff" {
			sawHandoff = true
		}
	}
	if !sawRetire || !sawHandoff {
		t.Errorf("membership journal missing auto-retired/handoff for shard-3: %v", r.MembershipEvents())
	}
}

// TestAutoRetireQuorumGuard: when most of the membership looks Down at
// once — the signature of a partitioned ROUTER, not dead shards — the
// grace timer must hold its fire instead of amputating the cluster.
func TestAutoRetireQuorumGuard(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1000, 0))
	hcfg := HealthConfig{Clock: clk, AutoRetire: true, GraceWindow: time.Minute}
	r, _ := healthHarness(t, 4, hcfg, nil)

	// 3 of 4 shards Down: for any victim only 1 of its 3 peers is up,
	// under the default 50% quorum (need 1.5).
	for _, id := range []string{"shard-2", "shard-3", "shard-4"} {
		for i := 0; i < 3; i++ {
			r.observeShard(id, false)
		}
	}
	skipped := false
	deadline := time.Now().Add(5 * time.Second)
	for !skipped && time.Now().Before(deadline) {
		clk.Advance(2 * time.Minute)
		time.Sleep(2 * time.Millisecond)
		for _, ev := range r.MembershipEvents() {
			if ev.Action == "retire-skipped" {
				skipped = true
			}
			if ev.Action == "auto-retired" || ev.Action == "retired" {
				t.Fatalf("shard %s retired below quorum: %s", ev.Shard, ev.Reason)
			}
		}
	}
	if !skipped {
		t.Fatal("quorum guard never recorded a retire-skipped event")
	}
	if got := len(r.Map().Shards()); got != 4 {
		t.Errorf("membership shrank to %d below quorum, want 4", got)
	}
}

// TestParseDrainShard: the DRAIN SHARD statement grammar.
func TestParseDrainShard(t *testing.T) {
	for _, tc := range []struct {
		stmt   string
		victim string
		ok     bool
	}{
		{"DRAIN SHARD shard-2", "shard-2", true},
		{"drain shard s1;", "s1", true},
		{"  Drain  Shard  x  ", "x", true},
		{"DRAIN SHARD", "", false},
		{"DRAIN SHARD a b", "", false},
		{"SELECT s.x FROM sensor s", "", false},
		{"DRAINAGE SHARD x", "", false},
	} {
		victim, ok := parseDrainShard(tc.stmt)
		if ok != tc.ok || victim != tc.victim {
			t.Errorf("parseDrainShard(%q) = (%q, %v), want (%q, %v)", tc.stmt, victim, ok, tc.victim, tc.ok)
		}
	}
}

// TestExecDrain: the router-side drain path — validation, the drainer
// contract (survivor-only owner map), retirement, and the membership
// journal.
func TestExecDrain(t *testing.T) {
	var mu sync.Mutex
	var drainVictim, drainOwner string
	hcfg := HealthConfig{
		Drainer: func(ctx context.Context, victim string, owner func(string) string) (DrainReport, error) {
			mu.Lock()
			drainVictim, drainOwner = victim, owner("m1")
			mu.Unlock()
			return DrainReport{Devices: 2, Queries: 1}, nil
		},
	}
	r, _ := healthHarness(t, 2, hcfg, map[string]string{"m1": "shard-2"})

	if resp := asResponse(t, r.Exec(context.Background(), "", "DRAIN SHARD nope")); resp.OK ||
		!strings.Contains(resp.Error, "unknown shard") {
		t.Fatalf("draining an unknown shard = %+v", resp)
	}

	resp := asResponse(t, r.Exec(context.Background(), "d1", "DRAIN SHARD shard-2"))
	if !resp.OK {
		t.Fatalf("DRAIN SHARD failed: %s", resp.Error)
	}
	if !strings.Contains(resp.Message, "drained") || !strings.Contains(resp.Message, "2 devices") {
		t.Errorf("drain message %q does not carry the moved counts", resp.Message)
	}
	mu.Lock()
	if drainVictim != "shard-2" {
		t.Errorf("drainer victim = %q, want shard-2", drainVictim)
	}
	if drainOwner != "shard-1" {
		t.Errorf("drainer owner(m1) = %q, want the survivor shard-1 (the m1 pin must not survive the drain)", drainOwner)
	}
	mu.Unlock()
	if r.Map().Contains("shard-2") {
		t.Error("drained shard still in the membership")
	}
	var sawDraining, sawDrained bool
	for _, ev := range r.MembershipEvents() {
		if ev.Shard == "shard-2" && ev.Action == "draining" {
			sawDraining = true
		}
		if ev.Shard == "shard-2" && ev.Action == "drained" {
			sawDrained = true
		}
	}
	if !sawDraining || !sawDrained {
		t.Errorf("membership journal missing draining/drained: %v", r.MembershipEvents())
	}

	// The survivor is the last shard: refuse to drain it.
	if resp := asResponse(t, r.Exec(context.Background(), "", "DRAIN SHARD shard-1")); resp.OK ||
		!strings.Contains(resp.Error, "last shard") {
		t.Fatalf("draining the last shard = %+v", resp)
	}
}

// TestDrainWithoutDrainer: a router with no drainer refuses the
// statement instead of silently retiring the shard.
func TestDrainWithoutDrainer(t *testing.T) {
	r, _ := clusterHarness(t, 2)
	resp := asResponse(t, r.Exec(context.Background(), "", "DRAIN SHARD shard-2"))
	if resp.OK || !strings.Contains(resp.Error, "no drainer") {
		t.Fatalf("drain without a drainer = %+v", resp)
	}
	if !r.Map().Contains("shard-2") {
		t.Error("shard-2 left the membership without a drainer")
	}
}

// TestShardCommand: the single-shard control used by the wire-only
// drain path.
func TestShardCommand(t *testing.T) {
	r, stubs := clusterHarness(t, 2)
	if err := r.ShardCommand(context.Background(), "shard-2", "\\drain"); err != nil {
		t.Fatalf("ShardCommand: %v", err)
	}
	if got := stubs[1].received(); len(got) != 1 || got[0] != "\\drain" {
		t.Errorf("shard-2 received %v, want the forwarded \\drain", got)
	}
	if got := stubs[0].received(); len(got) != 0 {
		t.Errorf("shard-1 received %v, want nothing (single-shard command)", got)
	}
	if err := r.ShardCommand(context.Background(), "nope", "\\drain"); err == nil {
		t.Error("ShardCommand to an unknown shard succeeded")
	}
	stubs[1].reply = func(stmt string) map[string]any {
		return map[string]any{"ok": false, "error": "boom"}
	}
	if err := r.ShardCommand(context.Background(), "shard-2", "\\drain"); err == nil ||
		!strings.Contains(err.Error(), "boom") {
		t.Errorf("ShardCommand error = %v, want the shard's failure", err)
	}
}

// TestMetricsCarriesRouterHealth: the \metrics frame includes the
// per-shard health view when the apparatus is on, and omits it when
// disabled.
func TestMetricsCarriesRouterHealth(t *testing.T) {
	r, _ := clusterHarness(t, 2)
	resp := asResponse(t, r.Exec(context.Background(), "", `\metrics`))
	if resp.Router == nil {
		t.Fatal("\\metrics frame has no router health section")
	}
	if len(resp.Router.Shards) != 2 {
		t.Errorf("router health covers %d shards, want 2", len(resp.Router.Shards))
	}

	net := netsim.NewNetwork(vclock.Real{}, 1)
	ln, err := net.Listen("s1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	(&stubShard{id: "s1"}).serve(t, ln)
	rd, err := NewRouter(RouterConfig{
		Shards: []ShardInfo{{ID: "s1", Addr: "s1"}},
		Dialer: net,
		Health: HealthConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rd.Close)
	if resp := asResponse(t, rd.Exec(context.Background(), "", `\metrics`)); resp.Router != nil {
		t.Error("disabled health apparatus still reports a router health section")
	}
}
