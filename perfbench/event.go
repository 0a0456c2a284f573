package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aorta/internal/comm"
	"aorta/internal/core"
	"aorta/internal/device"
	"aorta/internal/device/camera"
	"aorta/internal/device/mote"
	"aorta/internal/devsync"
	"aorta/internal/geo"
	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/scanshare"
	"aorta/internal/vclock"
	"aorta/internal/wal"
)

// eventSpec sizes one event workload.
type eventSpec struct {
	scale   float64
	motes   int
	cameras int
	// epoch is the CQs' EVERY, in virtual time.
	epoch time.Duration
	// journal runs the engine over a write-ahead journal (SyncAlways).
	journal bool
	// scheduleBusy keeps busy cameras schedulable, so a batch queues on
	// the device lock instead of failing when every covering camera is
	// mid-photo.
	scheduleBusy bool
	// deadline is how long after its due time a stimulus may take to
	// produce its outcome before it counts as missed.
	deadline time.Duration
	// queries names the CQs whose evaluations core.eval_pct counts;
	// create registers them.
	queries, create []string
}

func (sp *eventSpec) epochWall() time.Duration {
	return time.Duration(float64(sp.epoch) / sp.scale)
}

var scanSpec = func() *eventSpec {
	sp := &eventSpec{scale: scanScale, motes: scanMotes, epoch: time.Second, deadline: scanDeadline}
	for b := 0; b < scanBands; b++ {
		name := fmt.Sprintf("band_%02d", b)
		sp.queries = append(sp.queries, name)
		sp.create = append(sp.create, bandQuery(name, b))
	}
	return sp
}()

var photoSpec = &eventSpec{
	scale: photoScale, motes: photoMotes, cameras: photoCameras, epoch: 2 * time.Second,
	journal: true, scheduleBusy: true, deadline: photoDeadline,
	queries: []string{"snap"},
	create: []string{`CREATE AQ snap AS SELECT photo(c.ip, s.loc, "photos") FROM sensor s, camera c ` +
		`WHERE s.accel_x > 500 AND coverage(c.id, s.loc) EVERY "2s"`},
}

func bandQuery(name string, b int) string {
	return fmt.Sprintf(`CREATE AQ %s AS SELECT blink(s.id) FROM sensor s WHERE s.accel_x > %g AND s.accel_x < %g EVERY "1s"`,
		name, bandLo(b), bandHi(b))
}

// bandOf parses a band CQ's name; -1 for any other query.
func bandOf(query string) int {
	b, err := strconv.Atoi(strings.TrimPrefix(query, "band_"))
	if err != nil || !strings.HasPrefix(query, "band_") {
		return -1
	}
	return b
}

// moteIndex parses "mote-<k+1>"; -1 when it is not a mote id.
func moteIndex(id string) int {
	k, err := strconv.Atoi(strings.TrimPrefix(id, "mote-"))
	if err != nil || !strings.HasPrefix(id, "mote-") {
		return -1
	}
	return k - 1
}

// senseTol is how far a read may sit from a stimulus magnitude and still
// be that stimulus; the motes' read noise is ±5 mg.
const senseTol = 15.0

// stimRec follows one stimulus from due time to outcome. Fields are
// guarded by the stimulated mote's mu.
type stimRec struct {
	st        stimulus
	due       time.Time
	armed     time.Time
	sensed    time.Time // first read that returned the stimulated value
	execStart time.Time // the action's first device Exec
	execEnd   time.Time // its last device Exec return
	delivered time.Time // outcome received on SubscribeOutcomes
	done, ok  bool
	attempts  int
}

// stimMote is the stimulus injector every event workload serves in
// place of a bare mote: a stimulus raises accel_x until the first read
// samples it, so each physical event is sensed exactly once however the
// scan ticks fall. Traced runs also timestamp reads and Execs.
type stimMote struct {
	*mote.Mote
	loc    geo.Point
	traced bool
	reads  *timeLog // traced only

	mu   sync.Mutex
	open []*stimRec // armed stimuli without an outcome, oldest first
	busy time.Duration
}

func (m *stimMote) arm(st stimulus, due time.Time) *stimRec {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &stimRec{st: st, due: due, armed: time.Now()}
	m.open = append(m.open, r)
	m.Mote.Stimulate("x", st.mag, time.Hour)
	return r
}

func (m *stimMote) ReadAttr(name string) (any, error) {
	if name != "accel_x" {
		return m.Mote.ReadAttr(name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, err := m.Mote.ReadAttr(name)
	now := time.Now()
	if m.reads != nil {
		m.reads.add(now)
	}
	if x, ok := v.(float64); ok && err == nil && len(m.open) > 0 {
		if r := m.open[len(m.open)-1]; r.sensed.IsZero() && math.Abs(x-r.st.mag) < senseTol {
			r.sensed = now
			m.Mote.Stimulate("x", 0, 0)
		}
	}
	return v, err
}

func (m *stimMote) Exec(ctx context.Context, op string, args json.RawMessage) (any, error) {
	if !m.traced {
		return m.Mote.Exec(ctx, op, args)
	}
	start := time.Now()
	m.mu.Lock()
	r := m.pendingLocked(-1)
	if r != nil && r.execStart.IsZero() {
		r.execStart = start
	}
	m.mu.Unlock()
	res, err := m.Mote.Exec(ctx, op, args)
	end := time.Now()
	m.mu.Lock()
	m.busy += end.Sub(start)
	if r != nil {
		r.execEnd = end
	}
	m.mu.Unlock()
	return res, err
}

// pendingLocked returns the oldest sensed stimulus still awaiting its
// outcome, restricted to band unless band is -1.
func (m *stimMote) pendingLocked(band int) *stimRec {
	for _, r := range m.open {
		if !r.sensed.IsZero() && (band < 0 || r.st.band == band) {
			return r
		}
	}
	return nil
}

func (m *stimMote) finishLocked(r *stimRec) {
	for i, o := range m.open {
		if o == r {
			m.open = append(m.open[:i], m.open[i+1:]...)
			return
		}
	}
}

// camTracer times a traced camera's Execs and ties each move → capture
// → store sequence to the stimulus whose mote the move aims at.
type camTracer struct {
	device.Model
	motes []*stimMote
	aims  []geo.Orientation // per mote; Zoom 0 when not coverable

	mu      sync.Mutex
	cur     *stimRec
	curMote *stimMote
	busy    time.Duration
}

func (c *camTracer) Exec(ctx context.Context, op string, args json.RawMessage) (any, error) {
	start := time.Now()
	c.mu.Lock()
	if op == "move" {
		c.cur, c.curMote = nil, nil
		var a camera.MoveArgs
		if json.Unmarshal(args, &a) == nil {
			for k, aim := range c.aims {
				if aim.Zoom != 0 && math.Abs(aim.Pan-a.Pan) < 1e-6 && math.Abs(aim.Tilt-a.Tilt) < 1e-6 {
					m := c.motes[k]
					m.mu.Lock()
					if r := m.pendingLocked(-1); r != nil {
						if r.execStart.IsZero() {
							r.execStart = start
						}
						c.cur, c.curMote = r, m
					}
					m.mu.Unlock()
					break
				}
			}
		}
	}
	r, m := c.cur, c.curMote
	c.mu.Unlock()
	res, err := c.Model.Exec(ctx, op, args)
	end := time.Now()
	c.mu.Lock()
	c.busy += end.Sub(start)
	c.mu.Unlock()
	if r != nil {
		m.mu.Lock()
		r.execEnd = end
		m.mu.Unlock()
	}
	return res, err
}

// eventSystem is one event workload's stack: device farm, one engine on
// a scaled clock, and the registered CQs.
type eventSystem struct {
	spec    *eventSpec
	ctx     context.Context
	cancel  context.CancelFunc
	eng     *core.Engine
	journal *wal.Journal
	walDir  string
	servers []*device.Server
	motes   []*stimMote
	camIDs  []string
	cameras []*camera.Camera
	cams    []*camTracer // traced only
	// okBy counts OK outcomes per device; written by the outcome
	// consumer only.
	okBy     map[string]int
	mounts   map[string]geo.Mount
	outcomes <-chan *core.Outcome
	traced   bool
	reads    *timeLog
	devBytes atomic.Int64
}

// outcomeBuffer is the SubscribeOutcomes channel depth: a full second of
// outcomes at several times the workloads' rates, so the engine never
// sheds one while the consumer is descheduled.
const outcomeBuffer = 4096

func buildEvent(ctx context.Context, cfg buildConfig, spec *eventSpec) (sys system, err error) {
	s := &eventSystem{spec: spec, traced: cfg.traced, mounts: map[string]geo.Mount{}, okBy: map[string]int{}}
	s.ctx, s.cancel = context.WithCancel(ctx)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	clk := vclock.NewScaled(spec.scale)
	network := netsim.NewNetwork(clk, cfg.seed)
	var dialer netsim.Dialer = network
	if cfg.traced {
		s.reads = &timeLog{}
		dialer = &countingDialer{inner: network, n: &s.devBytes, writes: true}
	}
	ecfg := core.Config{Clock: clk, Dialer: dialer, ScheduleBusyDevices: spec.scheduleBusy}
	if spec.journal {
		if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
			return nil, err
		}
		if s.walDir, err = os.MkdirTemp(cfg.tmp, "perfbench-wal-*"); err != nil {
			return nil, err
		}
		if s.journal, err = wal.Open(s.walDir, wal.Options{}); err != nil {
			return nil, err
		}
		ecfg.Journal = s.journal
	}
	if s.eng, err = core.New(ecfg); err != nil {
		return nil, err
	}
	serve := func(id string, m device.Model) error {
		lis, err := network.Listen(id)
		if err != nil {
			return err
		}
		s.servers = append(s.servers, device.Serve(lis, m))
		return nil
	}

	for k := 0; k < spec.motes; k++ {
		loc := moteLocation(k, spec.motes)
		m := &stimMote{
			Mote:   mote.New(moteID(k), loc, clk, mote.Config{Depth: 1 + k%3, Seed: cfg.seed + int64(k)}),
			loc:    loc,
			traced: cfg.traced,
			reads:  s.reads,
		}
		s.motes = append(s.motes, m)
		if err := serve(moteID(k), m); err != nil {
			return nil, err
		}
		if err := s.eng.RegisterDevice(comm.DeviceInfo{
			ID: moteID(k), Type: profile.DeviceSensor, Addr: moteID(k),
			Static: map[string]any{"loc": loc, "depth": 1 + k%3},
		}, geo.Mount{}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.cameras; i++ {
		id := fmt.Sprintf("camera-%d", i+1)
		mount := cameraMount(i, spec.cameras)
		s.camIDs = append(s.camIDs, id)
		s.mounts[id] = mount
		cam := camera.New(id, mount, clk)
		s.cameras = append(s.cameras, cam)
		var model device.Model = cam
		if cfg.traced {
			ct := &camTracer{Model: model, motes: s.motes}
			for _, m := range s.motes {
				aim, _ := mount.Aim(m.loc)
				ct.aims = append(ct.aims, aim)
			}
			s.cams = append(s.cams, ct)
			model = ct
		}
		if err := serve(id, model); err != nil {
			return nil, err
		}
		if err := s.eng.RegisterDevice(comm.DeviceInfo{ID: id, Type: profile.DeviceCamera, Addr: id}, mount); err != nil {
			return nil, err
		}
	}
	if spec.cameras > 0 {
		for k, m := range s.motes {
			covered := false
			for _, mount := range s.mounts {
				covered = covered || mount.Covers(m.loc)
			}
			if !covered {
				return nil, fmt.Errorf("%s at %v is covered by no camera", moteID(k), m.loc)
			}
		}
	}

	if spec.journal {
		if _, err := s.eng.Recover(ctx); err != nil {
			return nil, err
		}
	}
	if err := s.eng.Start(s.ctx); err != nil {
		return nil, err
	}
	s.outcomes = s.eng.SubscribeOutcomes(outcomeBuffer)
	for _, stmt := range spec.create {
		if _, err := s.eng.Exec(ctx, stmt); err != nil {
			return nil, fmt.Errorf("%s: %w", stmt, err)
		}
	}
	return s, nil
}

func (s *eventSystem) close() {
	if s.eng != nil {
		s.eng.Stop()
	}
	if s.journal != nil {
		s.journal.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
	s.cancel()
}

// cameraMount and moteLocation lay the farm out as internal/lab does:
// cameras alternate along the room's short walls facing inward, motes sit
// on a grid across the floor.
func cameraMount(i, n int) geo.Mount {
	const width, depth, ceiling = 14.0, 8.0, 3.0
	step := depth / float64((n+1)/2+1)
	row := float64(i/2+1) * step
	if i%2 == 0 {
		return geo.DefaultMount(geo.Point{X: 0, Y: row, Z: ceiling}, 0)
	}
	return geo.DefaultMount(geo.Point{X: width, Y: row, Z: ceiling}, 180)
}

func moteLocation(i, n int) geo.Point {
	const width, depth = 14.0, 8.0
	cols := min(5, n)
	rows := (n + cols - 1) / cols
	return geo.Point{
		X: width * float64(i%cols+1) / float64(cols+1),
		Y: depth * float64(i/cols+1) / float64(rows+1),
	}
}

// eventCounters are the public snapshot counters a phase differences.
type eventCounters struct {
	comm     commTotals
	scan     scanshare.MetricsSnapshot
	evals    float64
	retries  float64
	wal      wal.Stats
	locks    devsync.LockStats
	busy     time.Duration
	devBytes float64
}

// actionDevices are the devices the workload's action runs on.
func (s *eventSystem) actionDevices() []string {
	if s.spec.cameras > 0 {
		return s.camIDs
	}
	ids := make([]string, len(s.motes))
	for k := range ids {
		ids[k] = moteID(k)
	}
	return ids
}

func (s *eventSystem) counters() eventCounters {
	var c eventCounters
	addComm(&c.comm, s.eng.CommMetrics())
	c.scan = s.eng.ScanMetrics()
	for _, q := range s.spec.queries {
		if info, ok := s.eng.QueryInfo(q); ok {
			c.evals += float64(info.Evals)
		}
	}
	c.retries = float64(s.eng.Metrics().Retries)
	c.wal, _ = s.eng.JournalStats()
	for _, id := range s.actionDevices() {
		st := s.eng.Locks().Stats(id)
		c.locks.Acquisitions += st.Acquisitions
		c.locks.Contentions += st.Contentions
		c.locks.TotalWait += st.TotalWait
	}
	for _, ct := range s.cams {
		ct.mu.Lock()
		c.busy += ct.busy
		ct.mu.Unlock()
	}
	if s.spec.cameras == 0 && s.traced {
		for _, m := range s.motes {
			m.mu.Lock()
			c.busy += m.busy
			m.mu.Unlock()
		}
	}
	c.devBytes = float64(s.devBytes.Load())
	return c
}

// match ties one outcome to the stimulus it answers: event_scan by the
// blinked mote and the band of the answering CQ, event_photo by the
// event's mote. An outcome that answers no pending stimulus, or a photo
// by a camera that does not cover the mote, is a wrong answer.
func (s *eventSystem) match(o *core.Outcome, now time.Time, wrong *phase) bool {
	band := -1
	k := moteIndex(strings.TrimPrefix(o.EventKey, "s="))
	if s.spec.cameras == 0 {
		k, band = moteIndex(o.DeviceID), bandOf(o.Query)
		if band < 0 {
			k = -1
		}
	}
	if k < 0 || k >= len(s.motes) {
		wrong.wrongAnswer("%s by %s (query %s, event %q) answers no stimulus", o.Action, o.DeviceID, o.Query, o.EventKey)
		return false
	}
	m := s.motes[k]
	m.mu.Lock()
	r := m.pendingLocked(band)
	if r != nil {
		r.done, r.delivered, r.ok, r.attempts = true, now, o.OK(), o.Attempts
		m.finishLocked(r)
	}
	m.mu.Unlock()
	if r == nil {
		wrong.wrongAnswer("%s by %s (query %s, event %q) answers no pending stimulus on %s",
			o.Action, o.DeviceID, o.Query, o.EventKey, moteID(k))
		return false
	}
	if o.OK() {
		s.okBy[o.DeviceID]++
	}
	if o.OK() && s.spec.cameras > 0 {
		if mount, ok := s.mounts[o.DeviceID]; !ok || !mount.Covers(m.loc) {
			wrong.wrongAnswer("photo of %s by %s, which does not cover it", moteID(k), o.DeviceID)
		}
	}
	return true
}

func (s *eventSystem) run(sch *schedule, _ bool) *phase {
	p := newPhase()
	epoch := s.spec.epochWall()
	// Warm-up: a few epochs so CQ loops, scan cohorts and mote sessions
	// are running before the first stimulus.
	time.Sleep(3 * epoch)
	if s.reads != nil {
		s.reads.take()
	}

	before := s.counters()
	consumer := newPhase()
	matched := make(chan struct{}, len(sch.stimuli))
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case o := <-s.outcomes:
				if s.match(o, time.Now(), consumer) {
					matched <- struct{}{}
				}
			}
		}
	}()

	win := beginWindow()
	walBytes := s.sampleJournal()
	start := time.Now().Add(5 * time.Millisecond)
	recs := make([]*stimRec, len(sch.stimuli))
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		for i, st := range sch.stimuli {
			due := start.Add(st.at)
			time.Sleep(time.Until(due))
			recs[i] = s.motes[st.mote].arm(st, due)
		}
	}()
	var churn []float64
	churnFails := 0
	if len(sch.churn) > 0 {
		gen.Add(1)
		go func() {
			defer gen.Done()
			churn, churnFails = s.churn(start, sch.churn)
		}()
	}
	deadline := time.NewTimer(time.Until(start.Add(sch.window + s.spec.deadline)))
wait:
	for range sch.stimuli {
		select {
		case <-matched:
		case <-deadline.C:
			break wait
		}
	}
	deadline.Stop()
	gen.Wait()
	p.win = win.end()
	p.layer["wal.bytes_per_op"] = walBytes()
	after := s.counters()
	close(stop)
	<-stopped
	for class, n := range consumer.fails {
		p.fails[class] += n
	}
	p.wrong = append(p.wrong, consumer.wrong...)

	p.attempted = len(sch.stimuli) + 2*len(sch.churn)
	p.fails[failError] += churnFails
	var sense, detect, service, record []float64
	attempts, unsensed := 0, 0
	for i, st := range sch.stimuli {
		m := s.motes[st.mote]
		m.mu.Lock()
		r := *recs[i]
		m.mu.Unlock()
		p.late = append(p.late, ms(r.armed.Sub(r.due)))
		e2e := r.delivered.Sub(r.due)
		switch {
		case !r.done || e2e > s.spec.deadline:
			p.fail(failMissed)
			if r.sensed.IsZero() {
				unsensed++
			}
			continue
		case !r.ok:
			p.fail(failAction)
			continue
		}
		p.completed++
		attempts += r.attempts
		p.lat = append(p.lat, ms(e2e))
		if !s.traced {
			continue
		}
		p.e2eMs += ms(e2e)
		if r.sensed.IsZero() || r.execStart.Before(r.sensed) || r.execEnd.Before(r.execStart) || r.delivered.Before(r.execEnd) {
			p.unattributedMs += ms(e2e)
			continue
		}
		sense = append(sense, ms(r.sensed.Sub(r.due)))
		detect = append(detect, ms(r.execStart.Sub(r.sensed)))
		service = append(service, ms(r.execEnd.Sub(r.execStart)))
		record = append(record, ms(r.delivered.Sub(r.execEnd)))
	}
	s.checkDevices(p, recs, attempts > p.completed)
	if missed := p.fails[failMissed]; missed > 0 {
		fmt.Fprintf(os.Stderr, "%d missed stimuli: %d never read by a scan; in the window the fabric dropped %d batches, %d scans and %.0f device reads failed\n",
			missed, unsensed, after.scan.BatchesDropped-before.scan.BatchesDropped, after.scan.ScanErrors-before.scan.ScanErrors,
			after.comm.readFails-before.comm.readFails)
	}
	if s.traced {
		l := p.layer
		l["scanshare.sense_ms_p50"] = quantile(sense, 0.50)
		l["scanshare.sense_ms_p99"] = quantile(sense, 0.99)
		l["core.detect_ms_p50"] = quantile(detect, 0.50)
		l["core.detect_ms_p99"] = quantile(detect, 0.99)
		l["device.service_ms_p50"] = quantile(service, 0.50)
		l["device.service_ms_p99"] = quantile(service, 0.99)
		l["core.record_ms_p50"] = quantile(record, 0.50)
		l["core.record_ms_p99"] = quantile(record, 0.99)
		l["core.churn_ms_p99"] = quantile(churn, 0.99)
		l["sched.attempts_per_req"] = ratio(float64(attempts), float64(p.completed))
		s.layers(p, before, after, epoch)
	}
	return p
}

// sampleJournal sums the journal's growth, sampled every 5 ms, until the
// returned function is called; that function returns the sum. Compaction
// deletes whole segments, so JournalStats().Bytes at the window's edges
// would understate what was appended. Untraced runs sample nothing.
func (s *eventSystem) sampleJournal() func() float64 {
	if !s.traced || s.journal == nil {
		return func() float64 { return 0 }
	}
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		last, sum := s.journal.Stats().Bytes, int64(0)
		for {
			select {
			case <-stop:
				done <- float64(sum)
				return
			case <-t.C:
				b := s.journal.Stats().Bytes
				if b > last {
					sum += b - last
				}
				last = b
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// checkDevices holds the outcomes to the devices' own counters: each OK
// blink outcome blinked its mote once, each OK photo outcome took one
// photo on its camera. A mote with a stimulus still open or failed is
// skipped, as are the cameras when any stimulus is open or failed or any
// action was retried, since a device effect may then lack its OK outcome.
func (s *eventSystem) checkDevices(p *phase, recs []*stimRec, retried bool) {
	open := map[int]bool{}
	for _, r := range recs {
		m := s.motes[r.st.mote]
		m.mu.Lock()
		if !r.done || !r.ok {
			open[r.st.mote] = true
		}
		m.mu.Unlock()
	}
	if s.spec.cameras == 0 {
		for k, m := range s.motes {
			if _, blinks := m.Counters(); !open[k] && blinks != s.okBy[moteID(k)] {
				p.wrongAnswer("%s blinked %d times for %d answered stimuli", moteID(k), blinks, s.okBy[moteID(k)])
			}
		}
		return
	}
	if len(open) > 0 || retried {
		return
	}
	for i, cam := range s.cameras {
		if n := cam.PhotosTaken(); n != s.okBy[s.camIDs[i]] {
			p.wrongAnswer("%s took %d photos for %d photo outcomes", s.camIDs[i], n, s.okBy[s.camIDs[i]])
		}
	}
}

// churn runs one CREATE AQ/DROP AQ pair at each due time, on the band no
// stimulus uses, and returns every statement's duration and how many
// failed.
func (s *eventSystem) churn(start time.Time, due []time.Duration) ([]float64, int) {
	var durs []float64
	fails := 0
	for i, at := range due {
		time.Sleep(time.Until(start.Add(at)))
		name := fmt.Sprintf("churn_%d", i)
		for _, stmt := range []string{bandQuery(name, scanBands), "DROP AQ " + name} {
			t0 := time.Now()
			_, err := s.eng.Exec(s.ctx, stmt)
			durs = append(durs, ms(time.Since(t0)))
			if err != nil {
				fails++
			}
		}
	}
	return durs, fails
}

// layers fills the event path's counter and ratio metrics from the
// public snapshots taken at the window's edges.
func (s *eventSystem) layers(p *phase, before, after eventCounters, epoch time.Duration) {
	l := p.layer
	ops := float64(p.completed)
	wall := p.win.wall
	epochsDue := float64(wall) / float64(epoch)
	sc := func(f func(scanshare.MetricsSnapshot) int64) float64 { return float64(f(after.scan) - f(before.scan)) }
	epochs := sc(func(m scanshare.MetricsSnapshot) int64 { return m.Epochs })
	l["scanshare.epoch_lag_pct"] = 100 * (1 - epochs/epochsDue)
	dropped := sc(func(m scanshare.MetricsSnapshot) int64 { return m.BatchesDropped })
	delivered := sc(func(m scanshare.MetricsSnapshot) int64 { return m.BatchesDelivered })
	l["scanshare.dropped_pct"] = 100 * ratio(dropped, dropped+delivered)
	coalesced := sc(func(m scanshare.MetricsSnapshot) int64 { return m.ScansCoalesced })
	typeScans := sc(func(m scanshare.MetricsSnapshot) int64 { return m.TypeScans })
	l["scanshare.coalesced_pct"] = 100 * ratio(coalesced, coalesced+typeScans)
	l["core.eval_pct"] = 100 * ratio(after.evals-before.evals, epochsDue*float64(len(s.spec.queries)))
	devices := float64(len(s.actionDevices()))
	l["device.busy_pct"] = 100 * ratio(float64(after.busy-before.busy), float64(wall)*devices)

	probes := sc(func(m scanshare.MetricsSnapshot) int64 { return m.IndexProbes })
	l["match.hit_pct"] = 100 * ratio(sc(func(m scanshare.MetricsSnapshot) int64 { return m.IndexHits }), probes)
	l["match.residual_pct"] = 100 * ratio(sc(func(m scanshare.MetricsSnapshot) int64 { return m.ResidualHits }),
		sc(func(m scanshare.MetricsSnapshot) int64 { return m.TuplesFanned }))
	l["sched.retries_per_kop"] = 1000 * ratio(after.retries-before.retries, ops)

	acq := float64(after.locks.Acquisitions - before.locks.Acquisitions)
	l["devsync.contended_pct"] = 100 * ratio(float64(after.locks.Contentions-before.locks.Contentions), acq)
	// Lock waits are measured on the engine's scaled clock.
	l["devsync.wait_ms_per_acq"] = ratio(ms(after.locks.TotalWait-before.locks.TotalWait)/s.spec.scale, acq)

	l["wal.appends_per_op"] = ratio(float64(after.wal.Appends-before.wal.Appends), ops)
	l["wal.syncs_per_op"] = ratio(float64(after.wal.Syncs-before.wal.Syncs), ops)
	l["wal.bytes_per_op"] = ratio(l["wal.bytes_per_op"], ops)

	commLayer(l, after.comm.sub(before.comm), ops, after.devBytes-before.devBytes, burstSpans(s.reads.take(), epoch/4))
}
