// Package comm implements Aorta's uniform data communication layer
// (paper §3).
//
// The layer manages the registry of networked heterogeneous devices and
// gives the query engine three things:
//
//   - the basic communication methods — connect(), close(), send() and
//     receive() — wrapped into typed Probe/Read/Exec calls that speak the
//     wire protocol to any device type (paper §3.3);
//   - virtual relational tables: each device type is abstracted into a
//     table whose tuples are generated on the fly by scan operators;
//     sensory attributes are acquired from the live device, non-sensory
//     attributes come from the registry (paper §3.2);
//   - per-device-type TIMEOUT handling so probes on unresponsive devices
//     break instead of hanging (paper §4).
//
// Unreachable devices never fail a scan — they simply contribute no tuple.
// That is the "network data independence" the paper takes from
// Hellerstein: applications see a dynamic logical view, not transmission
// loss and device failure.
//
// On top of the paper's per-interaction connect()/close() surface the
// layer runs a pooled transport (pool.go): sessions persist across
// operations keyed by device ID, reuse is health-checked, idle sessions
// are reaped, an optional soft cap evicts by LRU, and devices that refuse
// a dial enter an exponential backoff during which they are skipped
// without dialing — still contributing no tuple, so network data
// independence is preserved while a whole epoch of a continuous query no
// longer re-dials every sensor.
package comm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/vclock"
	"aorta/internal/wire"
)

// DefaultTimeout is the probe/request timeout used for device types with
// no explicit setting.
const DefaultTimeout = 2 * time.Second

// DeviceInfo describes one registered device.
type DeviceInfo struct {
	ID   string
	Type string
	// Addr is the network address the device's server listens on.
	Addr string
	// Static holds the device's non-sensory attribute values (e.g. loc,
	// number, depth).
	Static map[string]any
}

// clone returns a deep copy: the Static map is copied recursively so
// nested map/slice values (e.g. loc coordinates decoded from JSON) cannot
// alias the registry's originals. Non-container values (scalars, value
// structs like geo.Mount) are copied by assignment.
func (d *DeviceInfo) clone() *DeviceInfo {
	out := *d
	out.Static = make(map[string]any, len(d.Static))
	for k, v := range d.Static {
		out.Static[k] = deepCopyValue(v)
	}
	return &out
}

// deepCopyValue recursively copies the JSON-shaped containers that appear
// in Static maps. Other types pass through by value.
func deepCopyValue(v any) any {
	switch val := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(val))
		for k, x := range val {
			out[k] = deepCopyValue(x)
		}
		return out
	case []any:
		out := make([]any, len(val))
		for i, x := range val {
			out[i] = deepCopyValue(x)
		}
		return out
	default:
		return v
	}
}

// ProbeResult is what a successful probe returns: the device's identity,
// busy flag and current physical status.
type ProbeResult struct {
	DeviceID   string
	DeviceType string
	Busy       bool
	Status     json.RawMessage
	// RTT is the probe round-trip time on the layer's clock.
	RTT time.Duration
}

// Tuple is one row of a virtual device table: attribute name → value.
// Values are JSON-decoded (float64, string, bool, or raw structures).
type Tuple map[string]any

// Metrics counts the layer's interactions with the device network,
// including the transport pool's behaviour.
type Metrics struct {
	Probes        atomic.Int64
	ProbeFailures atomic.Int64
	Reads         atomic.Int64
	ReadFailures  atomic.Int64
	Execs         atomic.Int64
	ExecFailures  atomic.Int64
	Dials         atomic.Int64
	DialFailures  atomic.Int64

	// PoolHits counts operations served by a reused live session.
	PoolHits atomic.Int64
	// PoolMisses counts operations that had to dial a new session.
	PoolMisses atomic.Int64
	// PoolEvictions counts LRU evictions forced by the session cap.
	PoolEvictions atomic.Int64
	// PoolExpired counts sessions reaped after their idle TTL.
	PoolExpired atomic.Int64
	// PoolBroken counts dead sessions evicted by the liveness check.
	PoolBroken atomic.Int64
	// PoolDrained counts sessions closed by Close/ConfigurePool drains.
	PoolDrained atomic.Int64
	// SuppressedDials counts dials skipped because the device was inside
	// its dial-failure backoff window.
	SuppressedDials atomic.Int64
	// OpenSessions is the current number of pooled live sessions (gauge).
	OpenSessions atomic.Int64

	// GateShed counts operations refused by the liveness gate (the
	// failure detector holds the device Down).
	GateShed atomic.Int64
	// BreakerOpens counts circuit-breaker open transitions (including
	// re-opens after a failed half-open trial).
	BreakerOpens atomic.Int64
	// BreakerShed counts operations refused by an open circuit breaker.
	BreakerShed atomic.Int64
}

// MetricsSnapshot is a plain-value copy of Metrics for logging and JSON
// serialization (cmd/aortad's stats endpoint).
type MetricsSnapshot struct {
	Probes          int64 `json:"probes"`
	ProbeFailures   int64 `json:"probe_failures"`
	Reads           int64 `json:"reads"`
	ReadFailures    int64 `json:"read_failures"`
	Execs           int64 `json:"execs"`
	ExecFailures    int64 `json:"exec_failures"`
	Dials           int64 `json:"dials"`
	DialFailures    int64 `json:"dial_failures"`
	PoolHits        int64 `json:"pool_hits"`
	PoolMisses      int64 `json:"pool_misses"`
	PoolEvictions   int64 `json:"pool_evictions"`
	PoolExpired     int64 `json:"pool_expired"`
	PoolBroken      int64 `json:"pool_broken"`
	PoolDrained     int64 `json:"pool_drained"`
	SuppressedDials int64 `json:"suppressed_dials"`
	OpenSessions    int64 `json:"open_sessions"`
	GateShed        int64 `json:"gate_shed"`
	BreakerOpens    int64 `json:"breaker_opens"`
	BreakerShed     int64 `json:"breaker_shed"`
}

// Snapshot copies the counters into plain values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Probes:          m.Probes.Load(),
		ProbeFailures:   m.ProbeFailures.Load(),
		Reads:           m.Reads.Load(),
		ReadFailures:    m.ReadFailures.Load(),
		Execs:           m.Execs.Load(),
		ExecFailures:    m.ExecFailures.Load(),
		Dials:           m.Dials.Load(),
		DialFailures:    m.DialFailures.Load(),
		PoolHits:        m.PoolHits.Load(),
		PoolMisses:      m.PoolMisses.Load(),
		PoolEvictions:   m.PoolEvictions.Load(),
		PoolExpired:     m.PoolExpired.Load(),
		PoolBroken:      m.PoolBroken.Load(),
		PoolDrained:     m.PoolDrained.Load(),
		SuppressedDials: m.SuppressedDials.Load(),
		OpenSessions:    m.OpenSessions.Load(),
		GateShed:        m.GateShed.Load(),
		BreakerOpens:    m.BreakerOpens.Load(),
		BreakerShed:     m.BreakerShed.Load(),
	}
}

// ErrUnknownDevice is returned when an operation names an unregistered
// device.
var ErrUnknownDevice = errors.New("comm: unknown device")

// ErrTimeout is returned when a device did not answer within its type's
// TIMEOUT.
var ErrTimeout = errors.New("comm: device timed out")

// ErrUnreachable is returned when a device connection could not be
// established (link down, dial failure, no listener).
var ErrUnreachable = errors.New("comm: device unreachable")

// Retryable reports whether err is a transient transport failure that a
// caller may reasonably retry on another device (or on the same device
// later): connect/answer timeouts, unreachable links and dial-backoff
// suppressions. Addressing errors (ErrUnknownDevice) and semantic
// device-level failures are not retryable — repeating them cannot help.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, ErrUnknownDevice) {
		return false
	}
	if errors.Is(err, ErrTimeout) || errors.Is(err, ErrUnreachable) || errors.Is(err, ErrBackoff) {
		return true
	}
	var ne interface{ Timeout() bool }
	return errors.As(err, &ne) && ne.Timeout()
}

// Layer is the uniform data communication layer.
type Layer struct {
	dialer  netsim.Dialer
	clk     vclock.Clock
	reg     *profile.Registry
	pool    *pool
	breaker *breaker

	// gate and observer hook the failure detector into every pooled
	// operation; both must be installed (SetGate/SetObserver) before the
	// layer sees concurrent traffic. Nil means no detector.
	gate     func(id string) bool
	observer func(id string, alive bool)

	mu       sync.RWMutex
	devices  map[string]*DeviceInfo
	timeouts map[string]time.Duration

	// plans caches per-(type, attrs) scan layouts: the published schema
	// plus the static/sensory column split. Catalogs are fixed after
	// startup, so entries never invalidate.
	planMu sync.RWMutex
	plans  map[string]*scanPlan

	metrics Metrics
}

// New returns a communication layer using dialer for transport, clk for
// time and reg for catalog lookups. The layer's transport pool starts
// with default tuning; adjust it with ConfigurePool.
func New(dialer netsim.Dialer, clk vclock.Clock, reg *profile.Registry) *Layer {
	l := &Layer{
		dialer:   dialer,
		clk:      clk,
		reg:      reg,
		devices:  make(map[string]*DeviceInfo),
		timeouts: make(map[string]time.Duration),
		plans:    make(map[string]*scanPlan),
	}
	l.pool = newPool(l, PoolConfig{})
	l.breaker = newBreaker(l, BreakerConfig{})
	return l
}

// Metrics returns the layer's interaction counters.
func (l *Layer) Metrics() *Metrics { return &l.metrics }

// SetGate installs the liveness gate: every pooled operation asks
// gate(id) first and is shed (with an error matching ErrShed and
// ErrUnreachable) when it returns false. Install before concurrent use.
func (l *Layer) SetGate(gate func(id string) bool) { l.gate = gate }

// SetObserver installs the evidence sink: after every pooled operation
// that actually contacted (or failed to contact) the device, the layer
// reports observer(id, alive). Operations that never reached the network
// — gate sheds, breaker sheds, backoff suppressions, unknown devices,
// caller cancellation — produce no evidence. Install before concurrent
// use.
func (l *Layer) SetObserver(fn func(id string, alive bool)) { l.observer = fn }

// shed runs the liveness gate and the circuit breaker for one operation,
// in that order. A nil error admits the operation.
func (l *Layer) shed(id string) error {
	if l.gate != nil && !l.gate(id) {
		l.metrics.GateShed.Add(1)
		return fmt.Errorf("%w: %w: %s", ErrUnreachable, ErrShed, id)
	}
	return l.breaker.allow(id)
}

// note classifies one finished operation's error into liveness evidence
// and feeds the circuit breaker. Contact — success or a semantic device
// error — is alive; transport failures are dead; sheds, suppressions and
// cancellations are silence (no evidence, and a half-open breaker trial
// is abandoned rather than judged).
func (l *Layer) note(id string, err error) {
	alive, evidence := classifyEvidence(err)
	if !evidence {
		l.breaker.abandon(id)
		return
	}
	l.breaker.record(id, alive)
	if l.observer != nil {
		l.observer(id, alive)
	}
}

// classifyEvidence maps an operation error to (alive, evidence).
func classifyEvidence(err error) (alive, evidence bool) {
	switch {
	case err == nil:
		return true, true
	case errors.Is(err, ErrShed), errors.Is(err, ErrBreakerOpen), errors.Is(err, ErrBackoff),
		errors.Is(err, ErrUnknownDevice), errors.Is(err, context.Canceled):
		return false, false
	case Retryable(err):
		return false, true
	default:
		// The device answered with a semantic error: very much alive.
		return true, true
	}
}

// SetTimeout sets the TIMEOUT value for one device type (paper §4).
func (l *Layer) SetTimeout(deviceType string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.timeouts[deviceType] = d
}

// Timeout returns the TIMEOUT for a device type.
func (l *Layer) Timeout(deviceType string) time.Duration {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if d, ok := l.timeouts[deviceType]; ok {
		return d
	}
	return DefaultTimeout
}

// Register adds a device to the registry. The device type must have a
// catalog. Duplicate IDs are rejected.
func (l *Layer) Register(info DeviceInfo) error {
	if info.ID == "" || info.Type == "" || info.Addr == "" {
		return errors.New("comm: device needs ID, Type and Addr")
	}
	if _, ok := l.reg.Catalog(info.Type); !ok {
		return fmt.Errorf("comm: no catalog for device type %q", info.Type)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.devices[info.ID]; dup {
		return fmt.Errorf("comm: device %q already registered", info.ID)
	}
	if info.Static == nil {
		info.Static = make(map[string]any)
	}
	if _, ok := info.Static["id"]; !ok {
		info.Static["id"] = info.ID
	}
	l.devices[info.ID] = info.clone()
	return nil
}

// Remove deletes a device from the registry; devices leave the network
// dynamically and unpredictably (paper §4).
func (l *Layer) Remove(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.devices, id)
}

// Unregister removes a device and tears down its transport state: the
// pooled session is closed, the dial-backoff entry dropped and the
// circuit breaker reset. The full dynamic-membership departure path.
func (l *Layer) Unregister(id string) {
	l.Remove(id)
	l.pool.forget(id)
	l.breaker.reset(id)
}

// Readmit clears a device's negative transport state — dial backoff and
// circuit breaker — so the next operation dials immediately. Called when
// the failure detector declares a device recovered or it re-registers
// after churn.
func (l *Layer) Readmit(id string) {
	l.pool.clearBackoff(id)
	l.breaker.reset(id)
}

// Device returns the registry entry for id.
func (l *Layer) Device(id string) (*DeviceInfo, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d, ok := l.devices[id]
	if !ok {
		return nil, false
	}
	return d.clone(), true
}

// CountDevices reports how many registered devices of a type the filter
// admits and how many are registered, without copying any registry entry.
func (l *Layer) CountDevices(deviceType string, filter *DeviceFilter) (admitted, registered int) {
	return len(l.devicesFor(deviceType, filter)), len(l.devicesFor(deviceType, nil))
}

// devicesFor returns the registry's own entries for a device type that the
// filter admits, sorted by ID — no cloning. Registry entries are immutable
// after Register, so internal hot paths (scans) read them in place instead
// of deep-copying every device's Static map per epoch. Callers must not
// mutate the returned entries. A filter naming an ID is one map lookup.
func (l *Layer) devicesFor(deviceType string, filter *DeviceFilter) []*DeviceInfo {
	l.mu.RLock()
	if filter != nil && filter.ID != "" {
		d, ok := l.devices[filter.ID]
		l.mu.RUnlock()
		if !ok || d.Type != deviceType || !filter.admits(d) {
			return nil
		}
		return []*DeviceInfo{d}
	}
	var out []*DeviceInfo
	for _, d := range l.devices {
		if d.Type == deviceType {
			out = append(out, d)
		}
	}
	l.mu.RUnlock()
	// The filter runs outside the lock: it is caller code.
	kept := out[:0]
	for _, d := range out {
		if filter.admits(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].ID < kept[j].ID })
	return kept
}

// Devices returns all registered devices sorted by ID.
func (l *Layer) Devices() []*DeviceInfo {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]*DeviceInfo, 0, len(l.devices))
	for _, d := range l.devices {
		out = append(out, d.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Session is an open connection to one device: the connect()/close()/
// send()/receive() surface of paper §3.3.
//
// Two long-lived goroutines own the connection. The writer sends requests
// in hand-off order, so a request that times out while its frame crawls
// over a slow link is abandoned by its requester and still completes in
// the background. The reader routes responses to requesters by sequence
// number, so a late response cannot desynchronize later requests on the
// same session. Sessions are safe for concurrent use.
type Session struct {
	layer *Layer
	info  *DeviceInfo
	conn  net.Conn

	seq    atomic.Uint64
	writes chan *call
	// broken is set the instant a frame write fails: the stream may hold
	// a half-written frame, so the session is dead even if the reader
	// goroutine has not yet observed the closed connection.
	broken atomic.Bool

	mu      sync.Mutex
	pending map[uint64]*call
	readErr error
	done    chan struct{}

	closeOnce sync.Once
	loops     sync.WaitGroup
}

// call is one request in flight. Exactly one of the writer (on a failed
// send, with err set) or the reader (with the device's response) claims it
// out of Session.pending and delivers on resp.
type call struct {
	msg  wire.Message
	resp chan *wire.Message
	err  error
}

// Connect opens a dedicated (unpooled) session to the device, respecting
// the device type's TIMEOUT for connection establishment. The caller owns
// the session and must Close it. Most callers should use WithSession or
// the one-call Probe/ReadAttr/Exec helpers, which reuse pooled sessions.
func (l *Layer) Connect(ctx context.Context, id string) (*Session, error) {
	l.mu.RLock()
	info, ok := l.devices[id]
	l.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	tctx, cancel := vclock.WithTimeout(ctx, l.clk, l.Timeout(info.Type))
	defer cancel()
	l.metrics.Dials.Add(1)
	conn, err := l.dialer.Dial(tctx, info.Addr)
	if err != nil {
		l.metrics.DialFailures.Add(1)
		if tctx.Err() != nil && ctx.Err() == nil {
			return nil, fmt.Errorf("%w: connect to %s: %v", ErrTimeout, id, err)
		}
		return nil, fmt.Errorf("%w: connect to %s: %v", ErrUnreachable, id, err)
	}
	s := &Session{
		layer:   l,
		info:    info.clone(),
		conn:    conn,
		writes:  make(chan *call),
		pending: make(map[uint64]*call),
		done:    make(chan struct{}),
	}
	s.loops.Add(2)
	go s.readLoop()
	go s.writeLoop()
	return s, nil
}

// readLoop is the session's single receiver: it routes every inbound
// frame to the requester waiting on its sequence number, discarding
// responses whose requester already timed out.
func (s *Session) readLoop() {
	defer s.loops.Done()
	for {
		resp, err := wire.ReadFrame(s.conn)
		if err != nil {
			s.mu.Lock()
			s.readErr = fmt.Errorf("comm: receive from %s: %w", s.info.ID, err)
			close(s.done)
			s.pending = nil
			s.mu.Unlock()
			return
		}
		if c := s.claim(resp.Seq); c != nil {
			c.resp <- resp
		}
	}
}

// writeLoop is the session's single sender. It exits once the reader has
// seen the connection close.
func (s *Session) writeLoop() {
	defer s.loops.Done()
	for {
		select {
		case c := <-s.writes:
			if err := wire.WriteFrame(s.conn, &c.msg); err != nil {
				s.broken.Store(true)
				if s.claim(c.msg.Seq) == c {
					c.err = fmt.Errorf("comm: send to %s: %w", s.info.ID, err)
					c.resp <- nil
				}
			}
		case <-s.done:
			return
		}
	}
}

// claim removes and returns the call waiting on seq, or nil if its
// requester has given up.
func (s *Session) claim(seq uint64) *call {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.pending[seq]
	delete(s.pending, seq)
	return c
}

// alive reports whether the session is still usable — the pool's
// liveness check. A false return means the connection is dead and every
// future round trip on this session would fail. The broken flag covers
// the race where a write saw the closed connection before the reader
// goroutine did.
func (s *Session) alive() bool {
	if s.broken.Load() {
		return false
	}
	select {
	case <-s.done:
		return false
	default:
		return true
	}
}

// Close implements close(): it releases the connection and waits for the
// reader and the writer to exit.
func (s *Session) Close() error {
	var err error
	s.closeOnce.Do(func() {
		err = s.conn.Close()
		s.loops.Wait()
	})
	return err
}

// Device returns the session's device info.
func (s *Session) Device() *DeviceInfo { return s.info.clone() }

// roundTrip implements send() + receive() with the device type's TIMEOUT.
func (s *Session) roundTrip(ctx context.Context, msg wire.Message) (*wire.Message, error) {
	timeout := s.layer.Timeout(s.info.Type)
	tctx, cancel := vclock.WithTimeout(ctx, s.layer.clk, timeout)
	defer cancel()

	c := &call{msg: msg, resp: make(chan *wire.Message, 1)}
	c.msg.Seq = s.seq.Add(1)
	c.msg.Device = s.info.ID
	s.mu.Lock()
	if s.readErr != nil {
		err := s.readErr
		s.mu.Unlock()
		return nil, err
	}
	s.pending[c.msg.Seq] = c
	s.mu.Unlock()

	// send(): hand the request to the writer. TIMEOUT breaks the wait for
	// a writer still busy with an earlier frame to a hung or congested
	// device.
	select {
	case s.writes <- c:
	case <-tctx.Done():
		s.claim(c.msg.Seq)
		return nil, s.timeoutError(ctx, "accept the request", timeout)
	case <-s.done:
		return nil, s.readError()
	}

	select {
	case resp := <-c.resp:
		if resp == nil {
			return nil, c.err
		}
		if resp.Type == wire.TypeError {
			var ep wire.ErrorPayload
			if err := wire.DecodePayload(resp, &ep); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("comm: %s: %w", s.info.ID, ep.Err())
		}
		return resp, nil
	case <-tctx.Done():
		s.claim(c.msg.Seq)
		return nil, s.timeoutError(ctx, "answer", timeout)
	case <-s.done:
		return nil, s.readError()
	}
}

// timeoutError reports an expired request: the caller's own cancellation
// when that is what ended it, ErrTimeout otherwise.
func (s *Session) timeoutError(ctx context.Context, what string, timeout time.Duration) error {
	if ctx.Err() != nil {
		return fmt.Errorf("comm: %s: %w", s.info.ID, ctx.Err())
	}
	return fmt.Errorf("%w: %s did not %s within %v", ErrTimeout, s.info.ID, what, timeout)
}

// readError returns the reader's terminal error.
func (s *Session) readError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readErr
}

// Probe checks availability and fetches the device's physical status.
func (s *Session) Probe(ctx context.Context) (*ProbeResult, error) {
	s.layer.metrics.Probes.Add(1)
	start := s.layer.clk.Now()
	resp, err := s.roundTrip(ctx, wire.Message{Type: wire.TypeProbe})
	if err != nil {
		s.layer.metrics.ProbeFailures.Add(1)
		return nil, err
	}
	var ack wire.ProbeAck
	if err := wire.DecodePayload(resp, &ack); err != nil {
		s.layer.metrics.ProbeFailures.Add(1)
		return nil, err
	}
	return &ProbeResult{
		DeviceID:   ack.DeviceID,
		DeviceType: ack.DeviceType,
		Busy:       ack.Busy,
		Status:     ack.Status,
		RTT:        s.layer.clk.Since(start),
	}, nil
}

// Read acquires one attribute value from the device.
func (s *Session) Read(ctx context.Context, attr string) (any, error) {
	s.layer.metrics.Reads.Add(1)
	resp, err := s.roundTrip(ctx, wire.Message{
		Type:    wire.TypeRead,
		Payload: wire.MustPayload(&wire.ReadReq{Attr: attr}),
	})
	if err != nil {
		s.layer.metrics.ReadFailures.Add(1)
		return nil, err
	}
	var ack wire.ReadAck
	if err := wire.DecodePayload(resp, &ack); err != nil {
		s.layer.metrics.ReadFailures.Add(1)
		return nil, err
	}
	var v any
	if err := json.Unmarshal(ack.Value, &v); err != nil {
		s.layer.metrics.ReadFailures.Add(1)
		return nil, fmt.Errorf("comm: decode %s.%s: %w", s.info.ID, attr, err)
	}
	return v, nil
}

// Exec runs one atomic operation on the device and returns its raw result.
func (s *Session) Exec(ctx context.Context, op string, args any) (json.RawMessage, error) {
	s.layer.metrics.Execs.Add(1)
	var rawArgs json.RawMessage
	if args != nil {
		b, err := json.Marshal(args)
		if err != nil {
			return nil, fmt.Errorf("comm: marshal %s args: %w", op, err)
		}
		rawArgs = b
	}
	resp, err := s.roundTrip(ctx, wire.Message{
		Type:    wire.TypeExec,
		Payload: wire.MustPayload(&wire.ExecReq{Op: op, Args: rawArgs}),
	})
	if err != nil {
		s.layer.metrics.ExecFailures.Add(1)
		return nil, err
	}
	var ack wire.ExecAck
	if err := wire.DecodePayload(resp, &ack); err != nil {
		s.layer.metrics.ExecFailures.Add(1)
		return nil, err
	}
	return ack.Result, nil
}

// Probe is the one-call convenience, now a thin wrapper over the pooled
// transport: the probe rides a persistent session instead of paying
// connect()/close() per interaction.
func (l *Layer) Probe(ctx context.Context, id string) (*ProbeResult, error) {
	var res *ProbeResult
	ran := false
	err := l.WithSession(ctx, id, func(s *Session) error {
		ran = true
		var err error
		res, err = s.Probe(ctx)
		return err
	})
	if err != nil {
		// Keep the pre-pool accounting: a probe that could not even get a
		// session still counts as a failed probe.
		if !ran {
			l.metrics.Probes.Add(1)
			l.metrics.ProbeFailures.Add(1)
		}
		return nil, err
	}
	return res, nil
}

// ReadAttr is the one-call convenience: acquire one attribute value over
// a pooled session.
func (l *Layer) ReadAttr(ctx context.Context, id, attr string) (any, error) {
	var v any
	err := l.WithSession(ctx, id, func(s *Session) error {
		var err error
		v, err = s.Read(ctx, attr)
		return err
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Exec is the one-call convenience: run one atomic operation over a
// pooled session.
func (l *Layer) Exec(ctx context.Context, id, op string, args any) (json.RawMessage, error) {
	var raw json.RawMessage
	err := l.WithSession(ctx, id, func(s *Session) error {
		var err error
		raw, err = s.Exec(ctx, op, args)
		return err
	})
	if err != nil {
		return nil, err
	}
	return raw, nil
}
