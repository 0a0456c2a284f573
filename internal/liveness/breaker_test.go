package liveness

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aorta/internal/vclock"
)

// modelBreaker is the reference the Breaker is checked against: the same
// policy written as an explicit closed / open / trial state machine per
// key, with the failure history kept as plain timestamps.
type modelBreaker struct {
	threshold        int
	window, cooldown time.Duration
	keys             map[string]*modelKey
}

type modelKey struct {
	state    string // "closed", "open" or "trial"
	openedAt time.Time
	fails    []time.Time
}

func (m *modelBreaker) allow(k string, now time.Time) (bool, time.Duration) {
	st := m.keys[k]
	if m.threshold < 0 || st == nil || st.state == "closed" {
		return true, 0
	}
	if reopen := st.openedAt.Add(m.cooldown); now.Before(reopen) {
		return false, reopen.Sub(now)
	}
	if st.state == "trial" {
		return false, 0
	}
	st.state = "trial"
	return true, 0
}

func (m *modelBreaker) record(k string, now time.Time, ok bool) bool {
	if m.threshold < 0 {
		return false
	}
	if ok {
		delete(m.keys, k)
		return false
	}
	st := m.keys[k]
	if st == nil {
		st = &modelKey{state: "closed"}
		m.keys[k] = st
	}
	if st.state != "closed" {
		st.state, st.openedAt = "open", now
		return true
	}
	var recent []time.Time
	for _, at := range st.fails {
		if now.Sub(at) < m.window {
			recent = append(recent, at)
		}
	}
	st.fails = append(recent, now)
	if len(st.fails) < m.threshold {
		return false
	}
	st.state, st.openedAt, st.fails = "open", now, nil
	return true
}

func (m *modelBreaker) abandon(k string) {
	if st := m.keys[k]; st != nil && st.state == "trial" {
		st.state = "open"
	}
}

// TestBreakerModel drives the Breaker with seeded random sequences of
// Allow / Record / Abandon / Reset and Manual-clock advances over several
// keys and configs, checking every answer, every key's Open state and the
// number of tracked keys against modelBreaker. Advances are whole and half
// seconds, so failures land exactly Window old and trials exactly at the
// end of a cooldown.
func TestBreakerModel(t *testing.T) {
	cfgs := []BreakerConfig{
		{Threshold: 2, Window: 5 * time.Second, Cooldown: 3 * time.Second},
		{Threshold: 3, Window: 10 * time.Second, Cooldown: 4 * time.Second},
		{Threshold: 1, Window: 2 * time.Second, Cooldown: 2 * time.Second},
		{}, // the defaults: 5 failures / 30 s window / 10 s cooldown
		{Threshold: -1},
	}
	keys := []string{"a", "b", "c"}
	var opens, trials, abandoned int
	for ci, cfg := range cfgs {
		for seed := int64(1); seed <= 40; seed++ {
			clk := vclock.NewManual(time.Unix(1_000_000, 0))
			b := NewBreaker(clk, cfg)
			rc := cfg.resolve()
			m := &modelBreaker{threshold: rc.Threshold, window: rc.Window, cooldown: rc.Cooldown, keys: map[string]*modelKey{}}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 400; step++ {
				k := keys[rng.Intn(len(keys))]
				now := clk.Now()
				where := func() string { return fmt.Sprintf("cfg %d seed %d step %d key %s", ci, seed, step, k) }
				switch op := rng.Intn(10); {
				case op < 3:
					ok, wait := b.Allow(k)
					wantOK, wantWait := m.allow(k, now)
					if ok != wantOK || wait != wantWait {
						t.Fatalf("%s: Allow = (%v, %v), model (%v, %v)", where(), ok, wait, wantOK, wantWait)
					}
					if ok && m.keys[k] != nil && m.keys[k].state == "trial" {
						trials++
					}
				case op < 6:
					if got, want := b.Record(k, false), m.record(k, now, false); got != want {
						t.Fatalf("%s: Record(fail) opened = %v, model %v", where(), got, want)
					} else if got {
						opens++
					}
				case op < 7:
					if got := b.Record(k, true); got {
						t.Fatalf("%s: Record(ok) reported an open", where())
					}
					m.record(k, now, true)
				case op < 8:
					if st := m.keys[k]; st != nil && st.state == "trial" {
						abandoned++
					}
					b.Abandon(k)
					m.abandon(k)
				case op < 9 && rng.Intn(4) == 0:
					b.Reset(k)
					delete(m.keys, k)
				default:
					clk.Advance(time.Duration(rng.Intn(5)) * time.Second / 2)
				}
				for _, kk := range keys {
					st := m.keys[kk]
					if got, want := b.Open(kk), st != nil && st.state != "closed"; got != want {
						t.Fatalf("%s: Open(%s) = %v, model %v", where(), kk, got, want)
					}
				}
				b.mu.Lock()
				tracked := len(b.ids)
				b.mu.Unlock()
				if tracked != len(m.keys) {
					t.Fatalf("%s: breaker tracks %d keys, model %d", where(), tracked, len(m.keys))
				}
			}
		}
	}
	if opens == 0 || trials == 0 || abandoned == 0 {
		t.Fatalf("sequences never exercised the policy: %d opens, %d trials, %d abandoned trials", opens, trials, abandoned)
	}
}

// The half-open trial slot under contention: when the cooldown expires
// and a stampede of callers arrives at once, exactly one wins the trial
// and every loser is shed as "trial in flight" (wait 0). Run with -race
// this also proves Allow is safe to call from many goroutines.
func TestBreakerHalfOpenConcurrentTrials(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1_000_000, 0))
	b := NewBreaker(clk, BreakerConfig{Threshold: 2, Window: 30 * time.Second, Cooldown: 10 * time.Second})
	id := "cam-1"
	b.Record(id, false)
	b.Record(id, false) // open
	clk.Advance(11 * time.Second)

	const callers = 32
	var (
		start    = make(chan struct{})
		wg       sync.WaitGroup
		admitted atomic.Int32
		waited   atomic.Int32
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ok, wait := b.Allow(id)
			if ok {
				admitted.Add(1)
			} else if wait != 0 {
				waited.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := admitted.Load(); got != 1 {
		t.Fatalf("%d callers admitted to the half-open trial, want exactly 1", got)
	}
	if got := waited.Load(); got != 0 {
		t.Errorf("%d losers told to wait out a cooldown, want all shed as trial-in-flight", got)
	}
	// The winner's success closes the breaker for everyone.
	b.Record(id, true)
	for i := 0; i < callers; i++ {
		if ok, _ := b.Allow(id); !ok {
			t.Fatal("closed breaker shed a call")
		}
	}
}

// Every pooled device read runs Allow plus Record(ok) on the event path;
// for a healthy id that must not allocate.
func TestBreakerHealthyIDAllocs(t *testing.T) {
	b := NewBreaker(vclock.NewManual(time.Unix(1_000_000, 0)), BreakerConfig{})
	allocs := testing.AllocsPerRun(1000, func() {
		if ok, _ := b.Allow("mote-1"); ok {
			b.Record("mote-1", true)
		}
	})
	if allocs != 0 {
		t.Fatalf("Allow+Record(ok) on a healthy id allocates %.1f times, want 0", allocs)
	}
}

// TestBackoffSchedule checks the suppression window after the n-th
// consecutive failure against its closed form min(base·2^(n−1), max),
// that it expires exactly then, and that Clear restarts the schedule.
func TestBackoffSchedule(t *testing.T) {
	for _, tc := range []struct{ base, max, wantBase, wantMax time.Duration }{
		{0, 0, DefaultBackoffBase, DefaultBackoffMax},
		{time.Second, 60 * time.Second, time.Second, 60 * time.Second},
		{250 * time.Millisecond, 3 * time.Second, 250 * time.Millisecond, 3 * time.Second},
		{7 * time.Second, 5 * time.Second, 7 * time.Second, 5 * time.Second},
	} {
		clk := vclock.NewManual(time.Unix(1_000_000, 0))
		bo := NewBackoff(clk, tc.base, tc.max)
		for n := 1; n <= 70; n++ {
			want := tc.wantMax
			if w := float64(tc.wantBase) * math.Pow(2, float64(n-1)); w < float64(tc.wantMax) {
				want = time.Duration(w)
			}
			bo.Fail("s")
			if got := bo.Remaining("s"); got != want {
				t.Fatalf("base %v max %v: failure %d Remaining = %v, want %v", tc.base, tc.max, n, got, want)
			}
			clk.Advance(want - time.Nanosecond)
			if bo.Remaining("s") == 0 {
				t.Fatalf("base %v max %v: failure %d suppression ended early", tc.base, tc.max, n)
			}
			clk.Advance(time.Nanosecond)
			if got := bo.Remaining("s"); got != 0 {
				t.Fatalf("base %v max %v: failure %d still suppressed %v after its window", tc.base, tc.max, n, got)
			}
		}
		if bo.Remaining("other") != 0 {
			t.Error("an id that never failed is suppressed")
		}
		bo.Clear("s")
		bo.Fail("s")
		if got := bo.Remaining("s"); got != min(tc.wantBase, tc.wantMax) {
			t.Errorf("first window after Clear = %v, want %v", got, min(tc.wantBase, tc.wantMax))
		}
	}

	off := NewBackoff(vclock.NewManual(time.Unix(0, 0)), -1, 0)
	off.Fail("s")
	if got := off.Remaining("s"); got != 0 {
		t.Errorf("disabled backoff suppressed for %v", got)
	}
}
