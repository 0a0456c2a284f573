package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aorta/internal/comm"
	"aorta/internal/devsync"
	"aorta/internal/geo"
	"aorta/internal/liveness"
	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/scanshare"
	"aorta/internal/sched"
	"aorta/internal/sqlparse"
	"aorta/internal/vclock"
	"aorta/internal/wal"
)

// Config configures an Engine. Zero values select production defaults.
type Config struct {
	// Clock is the engine time source (default: the wall clock).
	Clock vclock.Clock
	// Dialer connects to devices (required).
	Dialer netsim.Dialer
	// Registry holds catalogs, atomic costs and action profiles
	// (default: profile.DefaultRegistry()).
	Registry *profile.Registry
	// DefaultEpoch is the sampling epoch for queries without EVERY
	// (default 1s).
	DefaultEpoch time.Duration
	// BatchWindow is how long the shared action operator collects
	// concurrent requests before scheduling them together (default
	// 100ms).
	BatchWindow time.Duration
	// Scheduler is the action workload scheduling algorithm (default
	// SRFAE, the paper's Algorithm 2).
	Scheduler sched.Algorithm
	// StaleAfter fails requests that have not started executing within
	// this long of their event (0 disables staleness).
	StaleAfter time.Duration
	// LockLease bounds how long one action may hold a device lock; a
	// crashed or hung action is revoked after this TTL and the device
	// handed to the next request (0 uses plain locks).
	LockLease time.Duration
	// MaxAttempts is the per-request execution attempt budget: after a
	// retryable failure (connect/timeout, lock-lease loss, device busy)
	// the shared action operator re-schedules the request over its
	// remaining probed candidates until this many attempts are spent
	// (default DefaultMaxAttempts; values below 1 clamp to 1, i.e. no
	// failover).
	MaxAttempts int

	// PoolMaxSessions caps the transport pool's concurrently open device
	// sessions; beyond it the least-recently-used idle session is evicted.
	// The cap is soft (busy sessions are never evicted). 0, the default,
	// means no cap: the registry bounds the sessions and PoolIdleTTL
	// reclaims idle ones. Negative disables pooling so every operation
	// dials and closes its own connection.
	PoolMaxSessions int
	// PoolIdleTTL reaps pooled sessions unused for this long on the
	// engine clock (default comm.DefaultPoolIdleTTL; negative keeps idle
	// sessions forever).
	PoolIdleTTL time.Duration
	// DialBackoff is the first suppression window after a device refuses
	// a dial; consecutive failures double it. While a device is in
	// backoff, scans and probes skip it without dialing — it simply
	// contributes no tuple (default comm.DefaultDialBackoff; negative
	// disables the dial-failure cache).
	DialBackoff time.Duration

	// LivenessSuspectAfter is the consecutive-failure count that moves a
	// device Up → Suspect in the failure detector (default
	// liveness.DefaultSuspectAfter).
	LivenessSuspectAfter int
	// LivenessDownAfter is the consecutive-failure count that moves a
	// device to Down, excluding it from scheduling and shedding its
	// traffic (default liveness.DefaultDownAfter).
	LivenessDownAfter int
	// LivenessProbeInterval enables the active health prober: every
	// interval on the engine clock the current membership is probed and
	// the results feed the failure detector — the re-admission path for
	// devices the request path no longer touches. 0 disables active
	// probing (the detector still runs on passive evidence).
	LivenessProbeInterval time.Duration
	// LivenessDownRetry is how often a Down device is granted one trial
	// operation through the transport gate so ordinary traffic can
	// discover recovery (default liveness.DefaultDownRetry; negative
	// disables trials).
	LivenessDownRetry time.Duration
	// DisableLiveness turns the failure detector off entirely — no
	// passive evidence, no gate, no scheduling filter. The churn study's
	// ablation, and the right setting for experiments that need dial
	// attempts to stay independent trials.
	DisableLiveness bool

	// BreakerThreshold is the transport-failure count within
	// BreakerWindow that opens a device's circuit breaker (default
	// comm.DefaultBreakerThreshold; negative disables the breaker).
	BreakerThreshold int
	// BreakerWindow is the breaker's rolling failure-counting window
	// (default comm.DefaultBreakerWindow).
	BreakerWindow time.Duration
	// BreakerCooldown is how long an open breaker sheds load before a
	// half-open trial (default comm.DefaultBreakerCooldown).
	BreakerCooldown time.Duration

	// DisableLocking turns off the device locking mechanism — the §6.2
	// ablation that reproduces interference failures.
	DisableLocking bool
	// DisableProbing turns off candidate probing before scheduling.
	DisableProbing bool
	// ScheduleBusyDevices keeps busy devices in the candidate set instead
	// of excluding them at probe time.
	ScheduleBusyDevices bool
	// InterferenceAblation fires every request of a device's sequence
	// concurrently instead of in order. Only meaningful together with
	// DisableLocking: it reproduces the §6.2 interference failures
	// (blurred photos, wrong positions) that motivate the locking
	// mechanism. Without it, DisableLocking still runs sequences in
	// order — just without the cross-operator lock guarantee.
	InterferenceAblation bool

	// EvalWorkers caps how many continuous-query epoch evaluations may run
	// concurrently on this engine; further epochs queue behind the cap (and
	// the fabric's bounded delivery buffer sheds batches that back up past
	// it, so a saturated engine degrades by skipping epochs, not by growing
	// without bound). This is the engine's evaluation capacity: a cluster
	// multiplies it by adding shards. 0 means unlimited (no admission gate).
	EvalWorkers int

	// QuarantineAfter auto-stops (quarantines) a continuous query after
	// this many contained evaluation panics: the query is STOPped with a
	// recorded reason instead of poisoning every subsequent epoch, and
	// START AQ refuses it until DROP AQ discards it (default
	// DefaultQuarantineAfter; negative disables quarantine).
	QuarantineAfter int

	// Logger receives structured engine events (query lifecycle, batch
	// dispatch, action failures). Nil discards them.
	Logger *slog.Logger

	// Journal makes the engine's state durable: catalog mutations (device
	// membership, query lifecycle) and action intents/outcomes are written
	// ahead, and Start replays them after a crash — restoring the catalog
	// and re-dispatching every intent that has no outcome. Nil runs the
	// engine purely in memory. The engine takes over the journal's
	// snapshot function; close the journal after Engine.Stop.
	Journal *wal.Journal
}

// DefaultMaxAttempts is the default per-request execution attempt budget
// (first attempt plus up to two failover retries).
const DefaultMaxAttempts = 3

// DefaultQuarantineAfter is the default contained-panic count that
// quarantines a continuous query.
const DefaultQuarantineAfter = 3

// engineConfig is the resolved form used internally.
type engineConfig struct {
	DefaultEpoch  time.Duration
	BatchWindow   time.Duration
	Scheduler     sched.Algorithm
	StaleAfter    time.Duration
	LockLease     time.Duration
	MaxAttempts   int
	Locking       bool
	Probing       bool
	ExcludeBusy   bool
	Interference  bool
	ProbeInterval time.Duration // active liveness probing (0 = off)
	// QuarantineAfter is the contained-panic threshold (0 = disabled).
	QuarantineAfter int
}

// Engine is the Aorta pervasive query processing engine.
type Engine struct {
	cfg    engineConfig
	lg     *slog.Logger
	clk    vclock.Clock
	reg    *profile.Registry
	layer  *comm.Layer
	locks  *devsync.LockManager
	prober *devsync.Prober
	// live is the per-device failure detector; nil when DisableLiveness.
	live *liveness.Detector
	// fabric is the shared scan fabric: continuous queries subscribe their
	// table needs and every (device type, epoch) pair is sampled once per
	// epoch regardless of how many queries ride it.
	fabric *scanshare.Fabric
	// evalSem bounds concurrent continuous-query evaluations when
	// Config.EvalWorkers > 0; nil means unlimited.
	evalSem chan struct{}

	mu        sync.Mutex
	queries   map[string]*Query
	actions   map[string]*ActionDef
	operators map[string]*actionOperator
	boolFuncs map[string]BoolFunc
	libs      map[string]ActionFunc
	nextQID   int
	started   bool

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup

	reqSeq  atomic.Int64
	seedSeq atomic.Int64

	photos   *photoStore
	metrics  *EngineMetrics
	outcomes *outcomeLog

	// glue wires the write-ahead journal in; nil without Config.Journal.
	glue *journalGlue
	// degraded flags journal-degraded (read-only) mode: a journal append
	// failed for a storage reason, so mutating statements are refused with
	// ErrDegraded until a journal write succeeds again. Continuous queries
	// keep streaming throughout — a full disk degrades durability, never
	// availability.
	degraded atomic.Bool

	// draining refuses new placements while the engine flushes for a
	// cooperative shard drain (see Drain).
	draining atomic.Bool
	// inFlight counts action requests currently inside a dispatch.
	inFlight atomic.Int64
	// recovered holds journal-recovered intents awaiting re-submission;
	// Start drains it. recoveryStats memoizes the replay for Recover's
	// idempotent second call. Both under e.mu.
	recovered     []*recoveredIntent
	recoveryStats RecoveryStats
}

// New builds an engine over the given transport.
func New(cfg Config) (*Engine, error) {
	if cfg.Dialer == nil {
		return nil, errors.New("core: Config.Dialer is required")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = vclock.Real{}
	}
	reg := cfg.Registry
	if reg == nil {
		var err error
		reg, err = profile.DefaultRegistry()
		if err != nil {
			return nil, err
		}
	}
	resolved := engineConfig{
		DefaultEpoch:    cfg.DefaultEpoch,
		BatchWindow:     cfg.BatchWindow,
		Scheduler:       cfg.Scheduler,
		StaleAfter:      cfg.StaleAfter,
		LockLease:       cfg.LockLease,
		MaxAttempts:     cfg.MaxAttempts,
		Locking:         !cfg.DisableLocking,
		Probing:         !cfg.DisableProbing,
		ExcludeBusy:     !cfg.ScheduleBusyDevices,
		Interference:    cfg.DisableLocking && cfg.InterferenceAblation,
		QuarantineAfter: cfg.QuarantineAfter,
	}
	if resolved.QuarantineAfter == 0 {
		resolved.QuarantineAfter = DefaultQuarantineAfter
	}
	if resolved.QuarantineAfter < 0 {
		resolved.QuarantineAfter = 0 // quarantine disabled
	}
	if !cfg.DisableLiveness && cfg.LivenessProbeInterval > 0 {
		resolved.ProbeInterval = cfg.LivenessProbeInterval
	}
	if resolved.DefaultEpoch <= 0 {
		resolved.DefaultEpoch = time.Second
	}
	if resolved.MaxAttempts == 0 {
		resolved.MaxAttempts = DefaultMaxAttempts
	}
	if resolved.MaxAttempts < 1 {
		resolved.MaxAttempts = 1
	}
	if resolved.BatchWindow <= 0 {
		resolved.BatchWindow = 100 * time.Millisecond
	}
	if resolved.Scheduler == nil {
		resolved.Scheduler = sched.SRFAE{}
	}

	lg := cfg.Logger
	if lg == nil {
		lg = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	layer := comm.New(cfg.Dialer, clk, reg)
	layer.ConfigurePool(comm.PoolConfig{
		MaxSessions: cfg.PoolMaxSessions,
		IdleTTL:     cfg.PoolIdleTTL,
		BackoffBase: cfg.DialBackoff,
	})
	layer.ConfigureBreaker(comm.BreakerConfig{
		Threshold: cfg.BreakerThreshold,
		Window:    cfg.BreakerWindow,
		Cooldown:  cfg.BreakerCooldown,
	})
	e := &Engine{
		cfg:       resolved,
		lg:        lg,
		clk:       clk,
		reg:       reg,
		layer:     layer,
		locks:     devsync.NewLockManager(clk),
		prober:    devsync.NewProber(layer),
		queries:   make(map[string]*Query),
		actions:   make(map[string]*ActionDef),
		operators: make(map[string]*actionOperator),
		boolFuncs: make(map[string]BoolFunc),
		libs:      make(map[string]ActionFunc),
		runCtx:    context.Background(),
		photos:    &photoStore{},
		metrics:   newEngineMetrics(),
		outcomes:  &outcomeLog{},
	}
	if cfg.EvalWorkers > 0 {
		e.evalSem = make(chan struct{}, cfg.EvalWorkers)
	}
	// The fabric scans through the layer, so pooled sessions, dial backoff,
	// circuit breakers and the liveness gate all apply to shared scans.
	e.fabric = scanshare.New(clk, func(ctx context.Context, deviceType string, attrs []string) (*comm.Batch, error) {
		b, _, err := layer.ScanBatch(ctx, deviceType, attrs, nil)
		return b, err
	})
	if !cfg.DisableLiveness {
		e.live = liveness.New(clk, liveness.Config{
			SuspectAfter: cfg.LivenessSuspectAfter,
			DownAfter:    cfg.LivenessDownAfter,
			DownRetry:    cfg.LivenessDownRetry,
		})
		e.live.Subscribe(e.onLivenessEvent)
		layer.SetGate(e.live.AdmitTrial)
		layer.SetObserver(e.live.Observe)
	}
	if cfg.Journal != nil {
		e.glue = newJournalGlue(cfg.Journal)
	}
	if err := e.registerBuiltinActions(); err != nil {
		return nil, err
	}
	e.registerBuiltinBoolFuncs()
	return e, nil
}

// onLivenessEvent reacts to failure-detector transitions: a device going
// Down has any stranded lock reclaimed so queued requests stop waiting on
// a dead holder; a device recovering has its negative transport state
// (dial backoff, open breaker) cleared so traffic re-expands immediately.
func (e *Engine) onLivenessEvent(ev liveness.Event) {
	switch {
	case ev.To == liveness.Down:
		e.lg.Warn("device down", "device", ev.Device, "reason", ev.Reason)
		if e.locks.Reclaim(ev.Device) {
			e.lg.Warn("reclaimed lock stranded on down device", "device", ev.Device)
		}
	case ev.To == liveness.Up && ev.From != liveness.Up:
		e.layer.Readmit(ev.Device)
		e.lg.Info("device recovered", "device", ev.Device, "from", ev.From.String())
	default:
		e.lg.Info("device suspect", "device", ev.Device, "reason", ev.Reason)
	}
}

// deviceIDs lists the current membership for the health prober.
func (e *Engine) deviceIDs() []string {
	devs := e.layer.Devices()
	ids := make([]string, len(devs))
	for i, d := range devs {
		ids[i] = d.ID
	}
	return ids
}

// healthProbe is the active liveness check for one device: a dedicated
// (unpooled, ungated) connect + probe round trip, so a Down device is
// still reachable by the prober even while the gate sheds its ordinary
// traffic. Transport failures count as dead; a semantic answer — or a
// device unregistered mid-probe — does not.
func (e *Engine) healthProbe(ctx context.Context, id string) bool {
	sess, err := e.layer.Connect(ctx, id)
	if err != nil {
		if errors.Is(err, comm.ErrUnknownDevice) {
			return true // membership changed mid-probe: no evidence of death
		}
		return !comm.Retryable(err)
	}
	defer sess.Close()
	if _, err := sess.Probe(ctx); err != nil {
		return !comm.Retryable(err)
	}
	return true
}

// Layer exposes the uniform data communication layer.
func (e *Engine) Layer() *comm.Layer { return e.layer }

// Locks exposes the device lock manager.
func (e *Engine) Locks() *devsync.LockManager { return e.locks }

// Clock returns the engine's clock.
func (e *Engine) Clock() vclock.Clock { return e.clk }

// Registry returns the profile registry.
func (e *Engine) Registry() *profile.Registry { return e.reg }

// Metrics returns the engine's action metrics.
func (e *Engine) Metrics() MetricsSnapshot {
	snap := e.metrics.Snapshot()
	snap.Degraded = e.degraded.Load()
	return snap
}

// Degraded reports whether the engine is currently in journal-degraded
// (read-only) mode.
func (e *Engine) Degraded() bool { return e.degraded.Load() }

// JournalStats returns the write-ahead journal's counters (including the
// AppendErrors/SyncErrors early-warning counters degraded mode fires on),
// or false when the engine runs without a journal.
func (e *Engine) JournalStats() (wal.Stats, bool) {
	if e.glue == nil {
		return wal.Stats{}, false
	}
	return e.glue.j.Stats(), true
}

// enterDegraded flips the engine read-only after a journal write failed
// for a storage reason. Idempotent; only the transition is counted.
func (e *Engine) enterDegraded(cause error) {
	if e.degraded.CompareAndSwap(false, true) {
		e.metrics.noteDegraded(true)
		e.lg.Error("journal write failed: engine entering degraded (read-only) mode",
			"err", cause)
	}
}

// exitDegraded clears degraded mode after a journal write or probe
// succeeded. Idempotent; only the transition is counted.
func (e *Engine) exitDegraded() {
	if e.degraded.CompareAndSwap(true, false) {
		e.metrics.noteDegraded(false)
		e.lg.Info("journal writes succeeding again: engine exiting degraded mode")
	}
}

// checkDegraded gates a mutating statement. In degraded mode it first
// re-probes the journal with a sync — recovery (an admin freeing disk
// space) is discovered by the next mutation rather than requiring a
// restart — and refuses with ErrDegraded only if the probe still fails.
func (e *Engine) checkDegraded() error {
	if !e.degraded.Load() {
		return nil
	}
	if e.glue != nil {
		if err := e.glue.j.Sync(); err == nil {
			e.exitDegraded()
			return nil
		}
	}
	return ErrDegraded
}

// CommMetrics returns a snapshot of the communication layer's transport
// counters, including the session pool (hits, misses, evictions,
// suppressed dials, open sessions).
func (e *Engine) CommMetrics() comm.MetricsSnapshot { return e.layer.Metrics().Snapshot() }

// ScanMetrics returns a snapshot of the shared scan fabric's counters:
// coalesced scans, fan-out volume, delivery drops and predicate-index
// hit/residual rates.
func (e *Engine) ScanMetrics() scanshare.MetricsSnapshot { return e.fabric.Metrics() }

// ScanSharing reports the fabric's current scan groups: each entry is one
// coalesced (device type, epoch) scan and how many query tables ride it.
func (e *Engine) ScanSharing() []scanshare.ShareInfo { return e.fabric.Sharing() }

// Outcomes returns the recorded action outcomes.
func (e *Engine) Outcomes() []*Outcome { return e.outcomes.all() }

// SubscribeOutcomes returns a channel receiving future outcomes. Slow
// subscribers miss outcomes rather than stalling execution.
func (e *Engine) SubscribeOutcomes(buf int) <-chan *Outcome {
	return e.outcomes.subscribe(buf)
}

// Photos returns every photo stored by the photo() action.
func (e *Engine) Photos() []StoredPhoto { return e.photos.all() }

// RegisterDevice adds a device to the communication layer. For cameras,
// mount must carry the PTZ geometry; pass a zero Mount for other types.
func (e *Engine) RegisterDevice(info comm.DeviceInfo, mount geo.Mount) error {
	if info.Static == nil {
		info.Static = make(map[string]any)
	}
	if info.Type == profile.DeviceCamera {
		info.Static["mount"] = mount
		if _, ok := info.Static["loc"]; !ok {
			info.Static["loc"] = mount.Position
		}
		if _, ok := info.Static["ip"]; !ok {
			info.Static["ip"] = info.Addr
		}
	}
	if err := e.layer.Register(info); err != nil {
		return err
	}
	// A device (re)joining starts with a clean slate: no failure history,
	// no dial backoff, no open breaker. Devices join the network
	// dynamically and unpredictably (paper §4); a rejoin after churn must
	// not inherit the penalties of its previous life.
	if e.live != nil {
		e.live.Forget(info.ID)
	}
	e.layer.Readmit(info.ID)
	e.journalRegisterDevice(info)
	return nil
}

// UnregisterDevice removes a device from the engine at runtime — the
// departure half of dynamic membership. Its transport state (pooled
// session, dial backoff, circuit breaker) is torn down, the failure
// detector forgets it, and any lock it stranded is reclaimed so queued
// requests move on. Running queries keep going over the remaining
// membership; the device simply stops contributing tuples and candidates.
func (e *Engine) UnregisterDevice(id string) {
	e.layer.Unregister(id)
	if e.live != nil {
		e.live.Forget(id)
	}
	if e.locks.Reclaim(id) {
		e.lg.Warn("reclaimed lock stranded on unregistered device", "device", id)
	}
	e.journalUnregisterDevice(id)
	e.lg.Info("device unregistered", "device", id)
}

// Liveness exposes the failure detector; nil when DisableLiveness.
func (e *Engine) Liveness() *liveness.Detector { return e.live }

// LivenessSnapshot returns per-device health states, or nil when the
// detector is disabled.
func (e *Engine) LivenessSnapshot() map[string]liveness.DeviceHealth {
	if e.live == nil {
		return nil
	}
	return e.live.Snapshot()
}

// MountOf returns the PTZ mount geometry of a registered camera.
func (e *Engine) MountOf(deviceID string) (geo.Mount, bool) {
	info, ok := e.layer.Device(deviceID)
	if !ok {
		return geo.Mount{}, false
	}
	m, ok := info.Static["mount"].(geo.Mount)
	return m, ok
}

// RegisterBoolFunc installs a boolean function usable in WHERE clauses.
func (e *Engine) RegisterBoolFunc(name string, fn BoolFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.boolFuncs[name] = fn
}

// RegisterLibrary binds a library path (the AS "..." clause of CREATE
// ACTION) to a Go function — the reproduction's stand-in for the paper's
// dynamically linked libraries.
func (e *Engine) RegisterLibrary(path string, fn ActionFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.libs[path] = fn
}

// RegisterUserAction installs a fully specified action definition
// programmatically (profile + implementation + cost model).
func (e *Engine) RegisterUserAction(def *ActionDef) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.registerActionDefLocked(def)
}

func (e *Engine) registerActionDef(def *ActionDef) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.registerActionDefLocked(def)
}

func (e *Engine) registerActionDefLocked(def *ActionDef) error {
	if def.Name == "" || def.Fn == nil || def.Profile == nil {
		return errors.New("core: action definition needs Name, Fn and Profile")
	}
	if _, dup := e.actions[def.Name]; dup {
		return fmt.Errorf("core: action %q already registered", def.Name)
	}
	if def.Coster == nil {
		def.Coster = &FixedCoster{Duration: time.Second}
	}
	// Ensure the profile registry knows the action under its own name
	// (built-ins already do). A def may borrow another action's profile;
	// register a renamed copy in that case.
	if _, known := e.reg.Action(def.Name); !known {
		prof := def.Profile
		if prof.Name != def.Name {
			clone := *prof
			clone.Name = def.Name
			prof = &clone
			def.Profile = prof
		}
		if err := e.reg.RegisterAction(prof); err != nil {
			return err
		}
	}
	e.actions[def.Name] = def
	return nil
}

// registerBuiltinBoolFuncs installs coverage() and near().
func (e *Engine) registerBuiltinBoolFuncs() {
	// coverage(camera_id, location) — paper §2.2's Boolean function:
	// TRUE when the camera's view envelope covers the location.
	e.boolFuncs["coverage"] = func(args []any) (bool, error) {
		if len(args) != 2 {
			return false, fmt.Errorf("core: coverage() takes 2 arguments, got %d", len(args))
		}
		id, ok := args[0].(string)
		if !ok {
			return false, fmt.Errorf("core: coverage() first argument is %T, not a device id", args[0])
		}
		loc, ok := asPoint(args[1])
		if !ok {
			return false, fmt.Errorf("core: coverage() second argument is %T, not a location", args[1])
		}
		mount, ok := e.MountOf(id)
		if !ok {
			return false, nil
		}
		return mount.Covers(loc), nil
	}
	// near(loc_a, loc_b, metres) — proximity predicate.
	e.boolFuncs["near"] = func(args []any) (bool, error) {
		if len(args) != 3 {
			return false, fmt.Errorf("core: near() takes 3 arguments, got %d", len(args))
		}
		a, ok1 := asPoint(args[0])
		b, ok2 := asPoint(args[1])
		d, ok3 := toFloat(args[2])
		if !ok1 || !ok2 || !ok3 {
			return false, errors.New("core: near() arguments must be (location, location, number)")
		}
		return a.Dist(b) <= d, nil
	}
}

// Start launches the continuous-query loops. It may be called once. With
// a journal configured it first recovers any state a previous process
// left behind (an explicit Recover beforehand is equivalent), then
// re-submits every recovered intent whose deadline is still live.
func (e *Engine) Start(ctx context.Context) error {
	if e.glue != nil && !e.glue.didRecover() {
		if _, err := e.Recover(ctx); err != nil {
			return err
		}
	}
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return errors.New("core: engine already started")
	}
	e.started = true
	e.runCtx, e.runCancel = context.WithCancel(ctx)
	e.fabric.Start(e.runCtx)
	if e.live != nil && e.cfg.ProbeInterval > 0 {
		hp := liveness.NewHealthProber(e.live, e.clk, e.cfg.ProbeInterval, 0,
			e.deviceIDs, e.healthProbe)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			hp.Run(e.runCtx)
		}()
		e.lg.Info("health prober started", "interval", e.cfg.ProbeInterval)
	}
	for _, q := range e.queries {
		e.startQueryLocked(q)
	}
	recovered := e.recovered
	e.recovered = nil
	e.mu.Unlock()
	// Re-submission happens after releasing e.mu: the shared operators
	// take it, and the submit path needs the run context armed above.
	for _, ri := range recovered {
		e.lg.Info("re-dispatching recovered intent", "query", ri.req.Query,
			"action", ri.req.Action, "event", ri.req.EventKey)
		e.operatorFor(ri.def).submit(ri.req)
	}
	return nil
}

// Stop cancels all query loops, waits for in-flight work and drains the
// transport pool. The engine's communication layer stays usable for
// ad-hoc statements afterwards; drained devices are simply re-dialed.
func (e *Engine) Stop() {
	e.mu.Lock()
	cancel := e.runCancel
	e.runCancel = nil
	e.started = false
	e.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	e.wg.Wait()
	// Query loops have exited and dropped their subscriptions; wait for the
	// fabric's cohort loops before tearing down the transport they scan on.
	e.fabric.Stop()
	snap := e.layer.Metrics().Snapshot()
	_ = e.layer.Close()
	if cancel == nil && snap.OpenSessions == 0 {
		// Repeated Stop (e.g. a deferred Stop after an explicit one):
		// nothing ran and nothing was drained, so don't log it again.
		return
	}
	if e.glue != nil {
		// Push every buffered record to stable storage before the caller
		// proceeds to exit; errors degrade durability, not the shutdown.
		if err := e.glue.j.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
			e.lg.Error("journal sync at stop failed", "err", err)
		}
	}
	e.lg.Info("transport pool drained",
		"open_sessions", snap.OpenSessions,
		"dials", snap.Dials,
		"pool_hits", snap.PoolHits,
		"pool_misses", snap.PoolMisses,
		"pool_evictions", snap.PoolEvictions,
		"pool_expired", snap.PoolExpired,
		"pool_broken", snap.PoolBroken,
		"suppressed_dials", snap.SuppressedDials)
}

// startQueryLocked launches one query loop. Caller holds e.mu. Stopped
// queries (STOP AQ, possibly in a previous process) stay in the catalog
// but do not run until START AQ clears the flag.
func (e *Engine) startQueryLocked(q *Query) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.running || q.stopped || !e.started {
		return
	}
	qctx, cancel := context.WithCancel(e.runCtx)
	q.cancel = cancel
	q.running = true
	e.wg.Add(1)
	go e.runQuery(qctx, q)
}

func (e *Engine) nextRequestID() int64 { return e.reqSeq.Add(1) }
func (e *Engine) nextSeed() int64      { return e.seedSeq.Add(1) }

// operatorFor returns the shared operator of an action, creating it on
// first use.
func (e *Engine) operatorFor(def *ActionDef) *actionOperator {
	e.mu.Lock()
	defer e.mu.Unlock()
	op, ok := e.operators[def.Name]
	if !ok {
		op = newActionOperator(e, def)
		e.operators[def.Name] = op
	}
	return op
}

// forgetQuery unregisters a query from every shared operator's sharing
// set when it is dropped or stopped; without this the sets grow without
// bound on long-running daemons that cycle queries.
func (e *Engine) forgetQuery(qid int) {
	e.mu.Lock()
	ops := make([]*actionOperator, 0, len(e.operators))
	for _, op := range e.operators {
		ops = append(ops, op)
	}
	e.mu.Unlock()
	for _, op := range ops {
		op.forgetQuery(qid)
	}
}

// OperatorSharing reports how many queries share each action operator.
func (e *Engine) OperatorSharing() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int, len(e.operators))
	for name, op := range e.operators {
		out[name] = op.SharedBy()
	}
	return out
}

// ExecResult is the outcome of one Exec call.
type ExecResult struct {
	// Kind is "ok", "rows", "queries", "actions", "devices", "scans" or
	// "plan".
	Kind    string
	Message string
	Rows    []map[string]any
	Queries []Info
	Names   []string
}

// Exec parses and executes one extended-SQL statement.
func (e *Engine) Exec(ctx context.Context, sql string) (*ExecResult, error) {
	// A statement whose deadline already expired fails typed up front;
	// mid-statement expiry during a scan instead degrades to partial
	// results (network data independence: a device that did not answer
	// in time contributes no tuple).
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	// Statements that mutate journaled state are refused while the
	// journal cannot accept writes; reads and continuous evaluation
	// continue untouched.
	switch stmt.(type) {
	case *sqlparse.CreateAQ, *sqlparse.DropAQ, *sqlparse.StopAQ, *sqlparse.StartAQ:
		if err := e.checkDegraded(); err != nil {
			return nil, err
		}
	}
	// A draining engine accepts no new placements — its state is being
	// handed off — but keeps serving reads and lifecycle statements.
	switch stmt.(type) {
	case *sqlparse.CreateAQ, *sqlparse.CreateAction:
		if e.draining.Load() {
			return nil, ErrDraining
		}
	}
	switch st := stmt.(type) {
	case *sqlparse.CreateAction:
		return e.execCreateAction(st)
	case *sqlparse.CreateAQ:
		return e.execCreateAQ(st)
	case *sqlparse.DropAQ:
		return e.execDropAQ(st.Name)
	case *sqlparse.StopAQ:
		return e.execStopAQ(st.Name)
	case *sqlparse.StartAQ:
		return e.execStartAQ(st.Name)
	case *sqlparse.Show:
		return e.execShow(st.What)
	case *sqlparse.Explain:
		q, err := e.compileQuery("explain", st.Select)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Kind: "plan", Names: e.explain(q)}, nil
	case *sqlparse.Select:
		q, err := e.compileQuery("adhoc", st)
		if err != nil {
			return nil, err
		}
		rows, err := e.evalOnce(ctx, q)
		if err != nil {
			return nil, err
		}
		// A statement deadline that expired mid-scan is an error for an
		// ad-hoc query, not silently truncated rows: device-level
		// timeouts skip tuples (network data independence), but the
		// statement's own bound breaching is the client's signal.
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		return &ExecResult{Kind: "rows", Rows: rows}, nil
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", stmt)
	}
}

func (e *Engine) execCreateAction(st *sqlparse.CreateAction) (*ExecResult, error) {
	e.mu.Lock()
	fn, ok := e.libs[st.Library]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no implementation registered for library %q (RegisterLibrary first)", st.Library)
	}
	var prof *profile.ActionProfile
	if name, isReg := strings.CutPrefix(st.Profile, "registry:"); isReg {
		p, ok := e.reg.Action(name)
		if !ok {
			return nil, fmt.Errorf("core: no registered profile %q", name)
		}
		clone := *p
		clone.Name = st.Name
		prof = &clone
	} else {
		p, err := profile.LoadActionFile(st.Profile)
		if err != nil {
			return nil, err
		}
		p.Name = st.Name
		prof = p
	}
	def := &ActionDef{Name: st.Name, Profile: prof, Fn: fn}
	if costs, ok := e.reg.Costs(prof.DeviceType); ok {
		if d, err := prof.EstimateCost(costs, profile.Params{}); err == nil {
			def.Coster = &FixedCoster{Duration: d}
		}
	}
	if err := e.registerActionDef(def); err != nil {
		return nil, err
	}
	return &ExecResult{Kind: "ok", Message: fmt.Sprintf("action %s registered", st.Name)}, nil
}

func (e *Engine) execCreateAQ(st *sqlparse.CreateAQ) (*ExecResult, error) {
	q, err := e.compileQuery(st.Name, st.Select)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if _, dup := e.queries[st.Name]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: query %q already registered", st.Name)
	}
	e.nextQID++
	q.ID = e.nextQID
	e.queries[st.Name] = q
	e.startQueryLocked(q)
	e.mu.Unlock()
	e.journalQuery(wal.KindCreateQuery, &wal.QueryRecord{
		ID: q.ID, Name: q.Name, SQL: q.sel.String(), EpochNS: int64(q.Epoch),
	})
	e.lg.Info("query registered", "query", q.Name, "id", q.ID, "epoch", q.Epoch)
	return &ExecResult{
		Kind:    "ok",
		Message: fmt.Sprintf("query %s registered (id %d, epoch %s)", q.Name, q.ID, q.Epoch),
		Queries: []Info{q.Info()},
	}, nil
}

func (e *Engine) execDropAQ(name string) (*ExecResult, error) {
	e.mu.Lock()
	q, ok := e.queries[name]
	if ok {
		delete(e.queries, name)
	}
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no query %q", name)
	}
	stopQuery(q)
	e.forgetQuery(q.ID)
	e.journalQuery(wal.KindDropQuery, &wal.QueryRefRecord{Name: name})
	e.lg.Info("query dropped", "query", name)
	return &ExecResult{Kind: "ok", Message: fmt.Sprintf("query %s dropped", name)}, nil
}

func (e *Engine) execStopAQ(name string) (*ExecResult, error) {
	e.mu.Lock()
	q, ok := e.queries[name]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no query %q", name)
	}
	stopQuery(q)
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	e.forgetQuery(q.ID)
	e.journalQuery(wal.KindStopQuery, &wal.QueryRefRecord{Name: name})
	return &ExecResult{Kind: "ok", Message: fmt.Sprintf("query %s stopped", name)}, nil
}

func (e *Engine) execStartAQ(name string) (*ExecResult, error) {
	e.mu.Lock()
	q, ok := e.queries[name]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: no query %q", name)
	}
	q.mu.Lock()
	if q.quarantined {
		reason := q.quarReason
		q.mu.Unlock()
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (DROP AQ %s to discard it)", ErrQuarantined, reason, name)
	}
	q.stopped = false
	q.mu.Unlock()
	e.startQueryLocked(q)
	e.mu.Unlock()
	e.journalQuery(wal.KindStartQuery, &wal.QueryRefRecord{Name: name})
	return &ExecResult{Kind: "ok", Message: fmt.Sprintf("query %s started", name)}, nil
}

// quarantineQuery auto-stops a query whose evaluation panicked
// QuarantineAfter times: the same catalog transition as STOP AQ (journaled,
// so a restart keeps it stopped) plus a recorded reason SHOW QUERIES and
// START AQ surface. Called from the query's own loop with no locks held.
func (e *Engine) quarantineQuery(q *Query, cause error) {
	stopQuery(q)
	q.mu.Lock()
	q.stopped = true
	q.quarantined = true
	q.quarReason = fmt.Sprintf("quarantined after %d evaluation panics, last: %v", q.panics, cause)
	reason := q.quarReason
	q.mu.Unlock()
	e.forgetQuery(q.ID)
	e.journalQuery(wal.KindStopQuery, &wal.QueryRefRecord{Name: q.Name})
	e.metrics.noteQuarantine()
	e.lg.Error("query quarantined", "query", q.Name, "id", q.ID, "reason", reason)
}

func stopQuery(q *Query) {
	q.mu.Lock()
	cancel := q.cancel
	q.cancel = nil
	q.running = false
	q.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (e *Engine) execShow(what string) (*ExecResult, error) {
	switch what {
	case "QUERIES":
		e.mu.Lock()
		out := make([]Info, 0, len(e.queries))
		for _, q := range e.queries {
			out = append(out, q.Info())
		}
		e.mu.Unlock()
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return &ExecResult{Kind: "queries", Queries: out}, nil
	case "ACTIONS":
		e.mu.Lock()
		names := make([]string, 0, len(e.actions))
		for name := range e.actions {
			names = append(names, name)
		}
		e.mu.Unlock()
		sort.Strings(names)
		return &ExecResult{Kind: "actions", Names: names}, nil
	case "DEVICES":
		var names []string
		for _, d := range e.layer.Devices() {
			line := fmt.Sprintf("%s (%s @ %s)", d.ID, d.Type, d.Addr)
			if e.live != nil {
				line += fmt.Sprintf(" [%s]", e.live.State(d.ID))
			}
			names = append(names, line)
		}
		return &ExecResult{Kind: "devices", Names: names}, nil
	case "SCANS":
		var names []string
		for _, si := range e.fabric.Sharing() {
			noun := "queries"
			if si.Queries == 1 {
				noun = "query"
			}
			names = append(names, fmt.Sprintf("%s every %s: %d %s [%s]",
				si.DeviceType, si.Epoch, si.Queries, noun, strings.Join(si.Attrs, ", ")))
		}
		return &ExecResult{Kind: "scans", Names: names}, nil
	default:
		return nil, fmt.Errorf("core: cannot SHOW %q", what)
	}
}

// explain renders a compiled query's physical plan, one line per
// operator, bottom-up: scans → filter → action/projection.
func (e *Engine) explain(q *Query) []string {
	adhoc := q.sel.Every <= 0
	var out []string
	if adhoc {
		out = append(out, "ad-hoc query")
	} else {
		out = append(out, fmt.Sprintf("continuous query (epoch %s)", q.Epoch))
	}
	for _, bt := range q.tables {
		line := fmt.Sprintf("  scan %s as %s [%s] (", bt.deviceType, bt.alias, strings.Join(bt.attrs, ", "))
		if adhoc {
			// An ad-hoc scan pushes its static conjuncts into the
			// communication layer; the fabric behind a continuous query
			// acquires every device and routes on the extracted conjuncts.
			pushed, filter := e.pushdown(bt)
			admitted, registered := e.layer.CountDevices(bt.deviceType, filter)
			line += fmt.Sprintf("acquires %d of %d devices", admitted, registered)
			if len(pushed) > 0 {
				line += ", pushed " + joinPreds(pushed)
			}
		} else {
			_, registered := e.layer.CountDevices(bt.deviceType, nil)
			line += fmt.Sprintf("%d devices registered", registered)
			if len(bt.preds) > 0 {
				line += ", routed on " + joinPreds(bt.preds)
			}
		}
		out = append(out, line+")")
	}
	if q.sel.Where != nil {
		out = append(out, "  filter "+q.sel.Where.String())
	}
	for _, item := range q.actionItems {
		exclusive := ""
		if item.def.Profile.Exclusive {
			exclusive = ", exclusive lock"
		}
		out = append(out, fmt.Sprintf("  action %s on %s table (alias %s) [shared operator, scheduler %s%s]",
			item.def.Name, item.def.Profile.DeviceType, item.deviceAlias,
			e.cfg.Scheduler.Name(), exclusive))
	}
	for _, item := range q.aggItems {
		out = append(out, "  aggregate "+item.key)
	}
	for _, item := range q.projItems {
		out = append(out, "  project "+item.String())
	}
	return out
}

// QueryInfo returns the state of a registered query.
func (e *Engine) QueryInfo(name string) (Info, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[name]
	if !ok {
		return Info{}, false
	}
	return q.Info(), true
}
