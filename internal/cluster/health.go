package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"aorta/internal/frontdoor"
	"aorta/internal/liveness"
	"aorta/internal/vclock"
)

// Router-side shard health defaults. The detector thresholds, the
// breaker and the dial backoff are internal/liveness's, shared with the
// device transport, so a dead shard is judged and shed exactly like a
// dead device.
const (
	// DefaultShardProbeInterval is the period of the router's active
	// health probes (a \ping over each shard's persistent tagged
	// connection) when probing is enabled without a chosen interval.
	DefaultShardProbeInterval = 5 * time.Second
	// DefaultShardProbeTimeout bounds one probe round trip.
	DefaultShardProbeTimeout = 2 * time.Second
	// DefaultGraceWindow is how long a shard must stay Down before the
	// router auto-retires it — a network blip shorter than this never
	// amputates a healthy shard.
	DefaultGraceWindow = 10 * time.Second
	// DefaultQuorum is the fraction of the membership that must be
	// reachable for auto-retire to proceed. When the router itself is
	// partitioned, most shards look Down at once; retiring them all
	// would amputate healthy shards, so below quorum the router waits.
	DefaultQuorum = 0.5
)

// ErrShardShed marks a statement the router shed without touching the
// network: the shard's dial backoff window is open or its circuit
// breaker tripped. Shed failures are not fed to the failure detector —
// they carry no fresh evidence about the shard.
var ErrShardShed = errors.New("cluster: statement shed")

// HandoffFunc moves a retired shard's journaled state into the
// survivors: the auto-retire control loop calls it after Retire with
// the post-retirement owner map. In-process clusters wire it to
// PlanHandoff+Adopt; a wire-only router may leave it nil (retire only,
// handoff stays an operator action).
type HandoffFunc func(ctx context.Context, victim string, owner func(deviceID string) string) (AdoptStats, error)

// DrainReport summarizes one cooperative shard drain.
type DrainReport struct {
	// FlushedIntents is how many journaled intents were pending when the
	// drain began; all of them reached outcomes before handoff.
	FlushedIntents int
	// Devices/Queries/Intents are what moved to survivors.
	Devices, Queries, Intents int
	// Note, when set, replaces the moved-counts summary in the client
	// message — for drainers (like the wire-only router's) that flush
	// the shard but leave adoption to a later offline step.
	Note string
}

// DrainFunc cooperatively drains a running shard: stop new placements,
// flush in-flight evaluations, sync its WAL, and hand devices, queries
// and any leftover intents to the survivors chosen by owner (the
// post-retirement map). The router's DRAIN SHARD statement calls it
// before retiring the shard.
type DrainFunc func(ctx context.Context, victim string, owner func(deviceID string) string) (DrainReport, error)

// HealthConfig tunes the router's per-shard failure detector, active
// probes and auto-retire control loop. The zero value enables passive
// detection plus the breaker and dial backoff with the liveness
// defaults, keeps active probing off (set ProbeInterval), and keeps
// auto-retire off (set AutoRetire).
type HealthConfig struct {
	// Disabled turns the whole health apparatus off: no detector, no
	// breaker, no backoff, no probes — the pre-health router. Escape
	// hatch and the benchmark baseline.
	Disabled bool
	// Clock drives probes, backoff, the breaker window and the grace
	// timer. Nil means wall clock; tests use vclock.Manual.
	Clock vclock.Clock
	// SuspectAfter/DownAfter/DownRetry configure the liveness detector
	// (zero values pick the liveness defaults: 1 / 3 / 15s).
	SuspectAfter int
	DownAfter    int
	DownRetry    time.Duration
	// ProbeInterval enables active \ping probes over each shard's
	// persistent connection; 0 disables probing (passive evidence only).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe; an expired probe counts as failure
	// evidence. Zero picks DefaultShardProbeTimeout.
	ProbeTimeout time.Duration
	// AutoRetire arms the control loop: a shard Down for GraceWindow is
	// retired and handed off without operator action.
	AutoRetire bool
	// GraceWindow is how long Down must persist before auto-retire; zero
	// picks DefaultGraceWindow.
	GraceWindow time.Duration
	// Quorum is the fraction of the membership (excluding the victim)
	// that must be reachable for auto-retire to proceed; zero picks
	// DefaultQuorum.
	Quorum float64
	// Handoff, when set, moves the victim's state after auto-retire.
	Handoff HandoffFunc
	// Drainer, when set, serves the DRAIN SHARD statement.
	Drainer DrainFunc
	// MembershipLog, when set, receives one JSON line per membership
	// event (auto-retire, drain, operator retire) — the router's
	// durable record of who left and why.
	MembershipLog io.Writer
}

func (c HealthConfig) resolve() HealthConfig {
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultShardProbeTimeout
	}
	if c.GraceWindow <= 0 {
		c.GraceWindow = DefaultGraceWindow
	}
	if c.Quorum <= 0 {
		c.Quorum = DefaultQuorum
	}
	return c
}

// MembershipEvent is one entry in the router's membership journal.
type MembershipEvent struct {
	At     time.Time `json:"at"`
	Shard  string    `json:"shard"`
	Action string    `json:"action"` // down, retired, auto-retired, retire-skipped, draining, drained, drain-failed
	Reason string    `json:"reason,omitempty"`
}

// ShardHealth is one shard's row in the router's health view.
type ShardHealth struct {
	State               liveness.State `json:"state"`
	ConsecutiveFailures int            `json:"consecutive_failures,omitempty"`
	Since               time.Time      `json:"since,omitempty"`
	Draining            bool           `json:"draining,omitempty"`
	BreakerOpen         bool           `json:"breaker_open,omitempty"`
	DialBackoff         bool           `json:"dial_backoff,omitempty"`
}

// RouterHealth is the cluster-membership section of the router's
// \metrics frame: per-shard detector state plus the membership journal.
type RouterHealth struct {
	Shards     map[string]ShardHealth `json:"shards"`
	Events     []MembershipEvent      `json:"events,omitempty"`
	AutoRetire bool                   `json:"auto_retire"`
}

// maxMembershipEvents bounds the in-memory membership journal.
const maxMembershipEvents = 1024

// Health snapshots the router's per-shard health view. Nil when the
// health apparatus is disabled. It reads only the router's own health
// state, never a shard connection's lock, so a dial in flight cannot
// stall it.
func (r *Router) Health() *RouterHealth {
	if r.health == nil {
		return nil
	}
	snap := r.health.Snapshot()
	r.mu.Lock()
	out := &RouterHealth{
		Shards:     make(map[string]ShardHealth, len(r.addrs)),
		AutoRetire: r.hcfg.AutoRetire,
		Events:     append([]MembershipEvent(nil), r.memEvents...),
	}
	for id := range r.addrs {
		sh := ShardHealth{
			Draining:    r.draining[id],
			BreakerOpen: r.brk.Open(id),
			DialBackoff: r.backoff.Remaining(id) > 0,
		}
		if h, ok := snap[id]; ok {
			sh.State = h.State
			sh.ConsecutiveFailures = h.ConsecutiveFailures
			sh.Since = h.Since
		}
		out.Shards[id] = sh
	}
	r.mu.Unlock()
	return out
}

// MembershipEvents returns a copy of the membership journal, oldest
// first.
func (r *Router) MembershipEvents() []MembershipEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]MembershipEvent(nil), r.memEvents...)
}

// Detector exposes the shard failure detector (nil when disabled) for
// tests and studies.
func (r *Router) Detector() *liveness.Detector { return r.health }

// ShardCommand sends one statement to a single shard over its
// persistent connection and returns an error unless the shard answered
// OK — the building block for shard-directed controls like the
// wire-only router's forwarded \drain.
func (r *Router) ShardCommand(ctx context.Context, shardID, stmt string) error {
	r.mu.Lock()
	conn := r.conns[shardID]
	r.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("cluster: unknown shard %q", shardID)
	}
	f, err := r.exec(ctx, conn, stmt)
	if err != nil {
		return err
	}
	if !f.OK {
		return fmt.Errorf("cluster: shard %s: %s", shardID, f.Error)
	}
	return nil
}

// recordEvent appends one membership event to the bounded in-memory
// journal, the configured MembershipLog, and the router's logger.
func (r *Router) recordEvent(shard, action, reason string) {
	ev := MembershipEvent{At: r.clk.Now(), Shard: shard, Action: action, Reason: reason}
	r.mu.Lock()
	if len(r.memEvents) >= maxMembershipEvents {
		copy(r.memEvents, r.memEvents[1:])
		r.memEvents = r.memEvents[:len(r.memEvents)-1]
	}
	r.memEvents = append(r.memEvents, ev)
	w := r.hcfg.MembershipLog
	r.mu.Unlock()
	if w != nil {
		if line, err := json.Marshal(ev); err == nil {
			fmt.Fprintf(w, "%s\n", line)
		}
	}
	r.lg.Info("cluster membership event", "shard", shard, "action", action, "reason", reason)
}

// observeShard feeds one piece of evidence about a member shard to the
// failure detector. Evidence about retired shards is dropped.
func (r *Router) observeShard(id string, alive bool) {
	if r.health == nil {
		return
	}
	r.mu.Lock()
	_, member := r.addrs[id]
	r.mu.Unlock()
	if !member {
		return
	}
	r.health.Observe(id, alive)
}

// probeLoop sends a lightweight \ping to every shard each interval over
// the same persistent tagged connection statements use, so detection
// does not depend on client traffic. Evidence flows through the shared
// Router.exec path; a probe whose own timeout expires (the shard
// accepts but never answers, or its dial hangs) is reported as failure
// here, since exec treats an expired context as the caller giving up.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	for {
		if err := vclock.SleepCtx(r.runCtx, r.clk, r.hcfg.ProbeInterval); err != nil {
			return
		}
		r.mu.Lock()
		conns := make([]*shardConn, 0, len(r.conns))
		for _, c := range r.conns {
			conns = append(conns, c)
		}
		r.mu.Unlock()
		var pwg sync.WaitGroup
		for _, c := range conns {
			pwg.Add(1)
			go func(c *shardConn) {
				defer pwg.Done()
				ctx, cancel := vclock.WithTimeout(r.runCtx, r.clk, r.hcfg.ProbeTimeout)
				defer cancel()
				if _, err := r.exec(ctx, c, "\\ping"); err != nil && errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
					r.observeShard(c.id, false)
				}
			}(c)
		}
		pwg.Wait()
	}
}

// onShardDown arms the grace timer for a shard the detector just moved
// to Down. After GraceWindow, if the shard is still Down and quorum of
// the rest of the membership is reachable, the router retires it and
// runs the handoff; below quorum it re-checks every GraceWindow until
// the partition heals or the shard recovers.
func (r *Router) onShardDown(id, reason string) {
	r.recordEvent(id, "down", reason)
	if !r.hcfg.AutoRetire {
		return
	}
	r.mu.Lock()
	if r.healing[id] {
		r.mu.Unlock()
		return
	}
	r.healing[id] = true
	r.mu.Unlock()
	go func() {
		defer func() {
			r.mu.Lock()
			delete(r.healing, id)
			r.mu.Unlock()
		}()
		for {
			if err := vclock.SleepCtx(r.runCtx, r.clk, r.hcfg.GraceWindow); err != nil {
				return
			}
			if !r.tryAutoRetire(id) {
				return
			}
		}
	}()
}

// tryAutoRetire retires a shard that stayed Down through the grace
// window, then hands off its state. Returns true when the attempt
// should be retried after another grace window (quorum guard held it
// back); false when it is settled either way.
func (r *Router) tryAutoRetire(id string) (retry bool) {
	r.mu.Lock()
	members := r.smap.Shards()
	_, member := r.addrs[id]
	r.mu.Unlock()
	if !member {
		return false
	}
	if r.health.State(id) != liveness.Down {
		// The blip healed during the grace window: no amputation.
		return false
	}
	up := 0
	for _, s := range members {
		if s != id && r.health.State(s) != liveness.Down {
			up++
		}
	}
	need := r.hcfg.Quorum * float64(len(members)-1)
	if float64(up) < need {
		r.recordEvent(id, "retire-skipped",
			fmt.Sprintf("quorum guard: %d/%d peers reachable, need %.1f — suspecting router partition", up, len(members)-1, need))
		return true
	}
	if len(members) == 1 {
		return false
	}
	if err := r.Retire(id); err != nil {
		r.recordEvent(id, "retire-skipped", err.Error())
		return false
	}
	r.recordEvent(id, "auto-retired",
		fmt.Sprintf("down for grace window %s with %d/%d peers reachable", r.hcfg.GraceWindow, up, len(members)-1))
	if r.hcfg.Handoff != nil {
		st, err := r.hcfg.Handoff(r.runCtx, id, r.Map().Owner)
		if err != nil {
			r.recordEvent(id, "handoff-failed", err.Error())
			return false
		}
		r.recordEvent(id, "handoff",
			fmt.Sprintf("adopted %d devices, %d queries, %d intents (%d closed) into survivors",
				st.Devices, st.Queries, st.IntentsAdopted, st.IntentsClosed))
	}
	return false
}

// parseDrainShard recognizes the DRAIN SHARD <id> statement.
func parseDrainShard(stmt string) (string, bool) {
	f := strings.Fields(strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
	if len(f) != 3 || !strings.EqualFold(f[0], "DRAIN") || !strings.EqualFold(f[1], "SHARD") {
		return "", false
	}
	return f[2], true
}

// execDrain serves DRAIN SHARD <id>: the cooperative, zero-loss sibling
// of the crash handoff. The victim stops accepting new placements,
// flushes its in-flight evaluations, syncs its WAL, hands its devices,
// queries and intents to the survivors chosen by the post-retirement
// map, and only then leaves the membership.
func (r *Router) execDrain(ctx context.Context, id, victim string) *Response {
	fail := func(code, format string, args ...any) *Response {
		return &Response{ID: id, OK: false, Code: code, Error: fmt.Sprintf(format, args...)}
	}
	r.mu.Lock()
	drainer := r.hcfg.Drainer
	if drainer == nil {
		r.mu.Unlock()
		return fail("", "cluster: no drainer configured on this router")
	}
	if _, ok := r.addrs[victim]; !ok {
		r.mu.Unlock()
		return fail("", "cluster: unknown shard %q", victim)
	}
	if len(r.smap.Shards()) == 1 {
		r.mu.Unlock()
		return fail("", "cluster: cannot drain the last shard %q", victim)
	}
	if r.draining[victim] {
		r.mu.Unlock()
		return fail(frontdoor.CodeDraining, "cluster: shard %s is already draining", victim)
	}
	var survivors []string
	for _, s := range r.smap.Shards() {
		if s != victim {
			survivors = append(survivors, s)
		}
	}
	prospective, err := r.smap.WithShards(survivors)
	if err != nil {
		r.mu.Unlock()
		return fail("", "cluster: drain %s: %v", victim, err)
	}
	r.draining[victim] = true
	r.mu.Unlock()

	r.recordEvent(victim, "draining", fmt.Sprintf("operator drain, %d survivors", len(survivors)))
	rep, err := drainer(ctx, victim, prospective.Owner)
	if err != nil {
		r.mu.Lock()
		delete(r.draining, victim)
		r.mu.Unlock()
		r.recordEvent(victim, "drain-failed", err.Error())
		return fail("", "cluster: drain %s: %v", victim, err)
	}
	if err := r.Retire(victim); err != nil {
		r.mu.Lock()
		delete(r.draining, victim)
		r.mu.Unlock()
		r.recordEvent(victim, "drain-failed", err.Error())
		return fail("", "cluster: drain %s: retire: %v", victim, err)
	}
	r.mu.Lock()
	delete(r.draining, victim)
	r.mu.Unlock()
	detail := fmt.Sprintf("flushed %d pending intents, moved %d devices, %d queries, %d intents to %s",
		rep.FlushedIntents, rep.Devices, rep.Queries, rep.Intents, strings.Join(survivors, ","))
	if rep.Note != "" {
		detail = rep.Note
	}
	msg := fmt.Sprintf("shard %s drained: %s", victim, detail)
	r.recordEvent(victim, "drained", msg)
	return &Response{ID: id, OK: true, Message: msg}
}

// sortedShardIDs returns the member shard ids in stable order.
func (r *Router) sortedShardIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.addrs))
	for id := range r.addrs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
