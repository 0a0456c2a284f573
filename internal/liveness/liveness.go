// Package liveness is Aorta's health toolkit, shared by the device
// transport (internal/comm) and the shard router (internal/cluster): a
// failure Detector with its active HealthProber, a keyed circuit Breaker
// and a keyed exponential redial Backoff, all on a vclock.Clock. Both
// callers apply one evidence rule: a success or a transport failure is
// evidence (Detector.Observe, Breaker.Record); a shed, a closed
// connection or a caller cancellation is not (Breaker.Abandon, and no
// backoff step).
//
// The paper's testbed assumes a fixed, always-on device population; real
// pervasive deployments face constant churn — motes brown out, cameras
// reboot, phones leave coverage. The detector tracks every device through
// a three-state machine:
//
//	Up ──(SuspectAfter consecutive failures)──▶ Suspect
//	Suspect ──(DownAfter consecutive failures)──▶ Down
//	any state ──(one success)──▶ Up
//
// Evidence is passive — every communication-layer operation (scan read,
// probe, exec) reports whether the device answered — plus active health
// probes (see HealthProber) on the engine clock. Down devices are excluded
// from scheduling and shed at the transport layer, so batches stop burning
// dial timeouts on corpses; re-admission happens the moment any evidence
// source reaches the device again.
//
// Everything is measured on a vclock.Clock, so a Manual clock drives the
// detector deterministically in tests and a Scaled clock runs churn
// studies in accelerated virtual time.
package liveness

import (
	"fmt"
	"sync"
	"time"

	"aorta/internal/vclock"
)

// State is a device's liveness state.
type State int

// Liveness states.
const (
	// Up: the device is answering (or has produced no evidence yet —
	// unknown devices are optimistically Up).
	Up State = iota
	// Suspect: recent consecutive failures; the device stays schedulable
	// but the transport's circuit breaker may shed load if it flaps.
	Suspect
	// Down: the failure threshold was crossed; the device is excluded from
	// scheduling and operations on it are shed without dialing.
	Down
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MarshalText renders the state by name for JSON consumers (aortad's
// \metrics response).
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name produced by MarshalText, so clients
// (cmd/aortactl) can decode the \metrics response back into typed form.
func (s *State) UnmarshalText(text []byte) error {
	for st := Up; st <= Down; st++ {
		if st.String() == string(text) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("liveness: unknown state %q", text)
}

// Default thresholds.
const (
	// DefaultSuspectAfter is the consecutive-failure count that moves a
	// device Up → Suspect.
	DefaultSuspectAfter = 1
	// DefaultDownAfter is the consecutive-failure count that moves a
	// device to Down.
	DefaultDownAfter = 3
	// DefaultDownRetry is how often a Down device is granted one trial
	// operation through the transport gate, so passive evidence alone can
	// re-admit it even without an active health prober.
	DefaultDownRetry = 15 * time.Second
	// DefaultProbeInterval is the active health-probe period used when a
	// caller enables probing without choosing one.
	DefaultProbeInterval = 5 * time.Second
	// DefaultDownProbeEvery makes the health prober probe Down devices
	// only every Nth cycle, bounding the dial cost of watching corpses.
	DefaultDownProbeEvery = 3
)

// Config tunes a Detector. Zero values select the defaults above.
type Config struct {
	// SuspectAfter is the consecutive-failure threshold for Up → Suspect.
	SuspectAfter int
	// DownAfter is the consecutive-failure threshold for → Down. Resolved
	// to at least SuspectAfter.
	DownAfter int
	// DownRetry is the trial period for Down devices: AdmitTrial grants
	// one operation per window so traffic itself can discover recovery.
	// Negative disables gate trials (recovery then needs a health prober).
	DownRetry time.Duration
}

func (c Config) resolve() Config {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	if c.DownAfter <= 0 {
		c.DownAfter = DefaultDownAfter
	}
	if c.DownAfter < c.SuspectAfter {
		c.DownAfter = c.SuspectAfter
	}
	if c.DownRetry == 0 {
		c.DownRetry = DefaultDownRetry
	}
	return c
}

// Event records one state transition.
type Event struct {
	Device string
	From   State
	To     State
	// At is the transition time on the detector's clock.
	At time.Time
	// Reason is a short human-readable cause ("3 consecutive failures",
	// "recovered", "forgotten").
	Reason string
}

// DeviceHealth is a point-in-time copy of one device's detector entry.
type DeviceHealth struct {
	State State `json:"state"`
	// ConsecutiveFailures is the current failure streak (0 after any
	// success).
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Since is when the device entered its current state.
	Since time.Time `json:"since"`
}

type health struct {
	state     State
	fails     int
	since     time.Time
	nextTrial time.Time
}

// Detector is the failure detector: it accumulates per-device evidence
// and drives the Up/Suspect/Down state machine. Safe for concurrent use.
type Detector struct {
	clk vclock.Clock
	cfg Config

	mu      sync.Mutex
	devices map[string]*health
	subs    []func(Event)
	events  []Event

	transitions int64
}

// maxEvents bounds the in-memory transition log.
const maxEvents = 4096

// New returns a detector on clk.
func New(clk vclock.Clock, cfg Config) *Detector {
	return &Detector{
		clk:     clk,
		cfg:     cfg.resolve(),
		devices: make(map[string]*health),
	}
}

// Subscribe registers fn to be called synchronously (outside the
// detector's lock) on every state transition. Subscribers must not block.
func (d *Detector) Subscribe(fn func(Event)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.subs = append(d.subs, fn)
}

// Observe feeds one piece of evidence: alive means the device answered an
// operation (any contact, including a semantic error — a device that
// reports a wrong-position failure is very much alive), false means a
// transport-level failure (dial refused, timeout, connection died).
func (d *Detector) Observe(id string, alive bool) {
	d.mu.Lock()
	h := d.get(id)
	var ev *Event
	if alive {
		h.fails = 0
		if h.state != Up {
			ev = d.transitionLocked(id, h, Up, "recovered")
		}
	} else {
		h.fails++
		switch {
		case h.state != Down && h.fails >= d.cfg.DownAfter:
			ev = d.transitionLocked(id, h, Down,
				fmt.Sprintf("%d consecutive failures", h.fails))
			h.nextTrial = d.clk.Now().Add(d.cfg.DownRetry)
		case h.state == Up && h.fails >= d.cfg.SuspectAfter:
			ev = d.transitionLocked(id, h, Suspect,
				fmt.Sprintf("%d consecutive failures", h.fails))
		}
	}
	subs := d.subs
	d.mu.Unlock()
	if ev != nil {
		for _, fn := range subs {
			fn(*ev)
		}
	}
}

// transitionLocked moves h to state to, logging the event. Caller holds
// d.mu and fires the returned event after unlocking.
func (d *Detector) transitionLocked(id string, h *health, to State, reason string) *Event {
	ev := Event{Device: id, From: h.state, To: to, At: d.clk.Now(), Reason: reason}
	h.state = to
	h.since = ev.At
	d.transitions++
	if len(d.events) >= maxEvents {
		copy(d.events, d.events[1:])
		d.events = d.events[:len(d.events)-1]
	}
	d.events = append(d.events, ev)
	return &ev
}

func (d *Detector) get(id string) *health {
	h, ok := d.devices[id]
	if !ok {
		h = &health{state: Up, since: d.clk.Now()}
		d.devices[id] = h
	}
	return h
}

// State returns the device's current state. Unknown devices are Up.
func (d *Detector) State(id string) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.devices[id]
	if !ok {
		return Up
	}
	return h.state
}

// DownDevice reports whether the device is currently Down.
func (d *Detector) DownDevice(id string) bool { return d.State(id) == Down }

// AdmitTrial reports whether an operation on the device should proceed.
// Up and Suspect devices are always admitted. A Down device is admitted
// once per DownRetry window — the trial that lets ordinary traffic
// discover recovery without an active prober. Down devices between trials
// are shed.
func (d *Detector) AdmitTrial(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.devices[id]
	if !ok || h.state != Down {
		return true
	}
	if d.cfg.DownRetry < 0 {
		return false
	}
	now := d.clk.Now()
	if now.Before(h.nextTrial) {
		return false
	}
	h.nextTrial = now.Add(d.cfg.DownRetry)
	return true
}

// Forget drops the device's detector entry (dynamic unregistration, or a
// re-registered device starting fresh). No event is fired: the device is
// leaving the membership, not changing health.
func (d *Detector) Forget(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.devices, id)
}

// Snapshot copies every tracked device's health, keyed by device ID.
func (d *Detector) Snapshot() map[string]DeviceHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]DeviceHealth, len(d.devices))
	for id, h := range d.devices {
		out[id] = DeviceHealth{State: h.state, ConsecutiveFailures: h.fails, Since: h.since}
	}
	return out
}

// Events returns a copy of the bounded transition log, oldest first.
func (d *Detector) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Event, len(d.events))
	copy(out, d.events)
	return out
}

// Transitions returns the total number of state transitions observed.
func (d *Detector) Transitions() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.transitions
}
