package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aorta/internal/cluster"
	"aorta/internal/comm"
	"aorta/internal/core"
	"aorta/internal/device"
	"aorta/internal/device/mote"
	"aorta/internal/frontdoor"
	"aorta/internal/geo"
	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/vclock"
)

// stmtSystem is stmt_read's stack: 64 motes, two shard engines each
// behind its own front door, and the router behind a front door, all on
// zero-latency netsim links and the real clock. Clients speak the tagged
// line protocol to the router door.
type stmtSystem struct {
	ctx     context.Context
	cancel  context.CancelFunc
	network *netsim.Network
	servers []*device.Server
	engines []*core.Engine
	doors   []*frontdoor.Door
	lis     []net.Listener
	serveWG sync.WaitGroup
	router  *cluster.Router
	clients []*stmtClient
	// owner maps each mote to its shard id, from the router's cluster.Map.
	owner map[string]string
	tr    *stmtTrace // nil when untraced
}

// stmtTrace is what the traced wrappers record.
type stmtTrace struct {
	mu  sync.Mutex
	ops map[string]*stmtSpan
	// routerBytes counts bytes the router read from shard connections;
	// deviceBytes bytes on the engines' device connections.
	routerBytes atomic.Int64
	deviceBytes atomic.Int64
	reads       []*timeLog // per shard
}

type stmtSpan struct {
	routerIn, routerOut time.Time
	shards              []time.Duration
}

func (t *stmtTrace) span(tag string) *stmtSpan {
	sp := t.ops[tag]
	if sp == nil {
		sp = &stmtSpan{}
		t.ops[tag] = sp
	}
	return sp
}

func moteID(k int) string { return fmt.Sprintf("mote-%d", k+1) }

func shardID(i int) string { return fmt.Sprintf("shard-%d", i+1) }

func buildStmt(ctx context.Context, cfg buildConfig) (sys system, err error) {
	s := &stmtSystem{owner: map[string]string{}}
	s.ctx, s.cancel = context.WithCancel(ctx)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if cfg.traced {
		s.tr = &stmtTrace{ops: map[string]*stmtSpan{}}
		for i := 0; i < stmtShards; i++ {
			s.tr.reads = append(s.tr.reads, &timeLog{})
		}
	}
	clk := vclock.Real{}
	s.network = netsim.NewNetwork(clk, cfg.seed)

	infos := make([]cluster.ShardInfo, stmtShards)
	ids := make([]string, stmtShards)
	for i := range infos {
		ids[i] = shardID(i)
		infos[i] = cluster.ShardInfo{ID: ids[i], Addr: "fd-" + ids[i]}
	}
	pins := map[string]string{}
	entries := make([]cluster.DeviceEntry, stmtMotes)
	for k := 0; k < stmtMotes; k++ {
		pins[moteID(k)] = ids[k%stmtShards]
		entries[k] = cluster.DeviceEntry{ID: moteID(k), Type: profile.DeviceSensor}
	}
	smap, err := cluster.NewMap(ids, pins)
	if err != nil {
		return nil, err
	}

	locs := make([]geo.Point, stmtMotes)
	for k := 0; k < stmtMotes; k++ {
		id := moteID(k)
		s.owner[id] = smap.Owner(id)
		locs[k] = geo.Point{X: float64(k%8) + 1, Y: float64(k/8) + 1}
		var model device.Model = mote.New(id, locs[k], clk, mote.Config{Depth: 1, Seed: cfg.seed + int64(k)})
		if s.tr != nil {
			model = &readTracer{Model: model, log: s.tr.reads[k%stmtShards]}
		}
		lis, err := s.network.Listen(id)
		if err != nil {
			return nil, err
		}
		s.servers = append(s.servers, device.Serve(lis, model))
	}

	for _, sid := range ids {
		var dialer netsim.Dialer = s.network
		if s.tr != nil {
			dialer = &countingDialer{inner: s.network, n: &s.tr.deviceBytes, writes: true}
		}
		eng, err := core.New(core.Config{Clock: clk, Dialer: dialer})
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, eng)
		for k := 0; k < stmtMotes; k++ {
			if s.owner[moteID(k)] != sid {
				continue
			}
			if err := eng.RegisterDevice(comm.DeviceInfo{
				ID: moteID(k), Type: profile.DeviceSensor, Addr: moteID(k),
				Static: map[string]any{"loc": locs[k], "depth": 1},
			}, geo.Mount{}); err != nil {
				return nil, err
			}
		}
		if err := eng.Start(s.ctx); err != nil {
			return nil, err
		}
		door := frontdoor.New(frontdoor.Config{Clock: clk})
		exec := cluster.ShardExec(eng, door)
		if s.tr != nil {
			exec = s.tr.wrapShard(exec)
		}
		if err := s.serve("fd-"+sid, door, exec); err != nil {
			return nil, err
		}
	}

	var rdial netsim.Dialer = s.network
	if s.tr != nil {
		rdial = &countingDialer{inner: s.network, n: &s.tr.routerBytes}
	}
	s.router, err = cluster.NewRouter(cluster.RouterConfig{Shards: infos, Pins: pins, Dialer: rdial})
	if err != nil {
		return nil, err
	}
	s.router.SetDevices(entries)
	door := frontdoor.New(frontdoor.Config{Clock: clk})
	exec := frontdoor.Exec(s.router.Exec)
	if s.tr != nil {
		exec = s.tr.wrapRouter(exec)
	}
	if err := s.serve("router", door, exec); err != nil {
		return nil, err
	}
	for i := 0; i < stmtClients; i++ {
		conn, err := s.network.Dial(ctx, "router")
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, newStmtClient(conn))
	}
	return s, nil
}

// opTag returns the trailing "-- <tag>" comment of a statement, which
// the benchmark appends so traced wrappers on every hop can tell which
// client operation a statement belongs to.
func opTag(stmt string) string {
	i := strings.LastIndex(stmt, "-- ")
	if i < 0 {
		return ""
	}
	return stmt[i+3:]
}

// wrapRouter times the router's exec: entry and return per client tag.
func (t *stmtTrace) wrapRouter(exec frontdoor.Exec) frontdoor.Exec {
	return func(ctx context.Context, id, stmt string) any {
		in := time.Now()
		resp := exec(ctx, id, stmt)
		out := time.Now()
		t.mu.Lock()
		sp := t.span(opTag(stmt))
		sp.routerIn, sp.routerOut = in, out
		t.mu.Unlock()
		return resp
	}
}

// wrapShard times one shard's exec of a fanned-out statement, keyed by
// the client tag the statement carries in its trailing comment.
func (t *stmtTrace) wrapShard(exec frontdoor.Exec) frontdoor.Exec {
	return func(ctx context.Context, id, stmt string) any {
		in := time.Now()
		resp := exec(ctx, id, stmt)
		d := time.Since(in)
		t.mu.Lock()
		sp := t.span(opTag(stmt))
		sp.shards = append(sp.shards, d)
		t.mu.Unlock()
		return resp
	}
}

// serve runs door on a netsim listener at addr until close.
func (s *stmtSystem) serve(addr string, door *frontdoor.Door, exec frontdoor.Exec) error {
	s.doors = append(s.doors, door)
	lis, err := s.network.Listen(addr)
	if err != nil {
		return err
	}
	s.lis = append(s.lis, lis)
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			s.serveWG.Add(1)
			go func() {
				defer s.serveWG.Done()
				door.Serve(s.ctx, conn, exec)
			}()
		}
	}()
	return nil
}

func (s *stmtSystem) close() {
	for _, c := range s.clients {
		c.conn.Close()
		<-c.readerDone
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, l := range s.lis {
		l.Close()
	}
	s.serveWG.Wait()
	for _, d := range s.doors {
		d.Close()
	}
	for _, e := range s.engines {
		e.Stop()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	s.cancel()
}

// stmtFrame is the subset of the router's response frame the checks read.
type stmtFrame struct {
	ID      string           `json:"id"`
	OK      bool             `json:"ok"`
	Code    string           `json:"code"`
	Rows    []map[string]any `json:"rows"`
	Queries []map[string]any `json:"queries"`
	Cluster *struct {
		Shards []json.RawMessage `json:"shards"`
	} `json:"cluster"`
}

// stmtCall is one statement in flight on a client connection.
type stmtCall struct {
	id string
	op stmtOp
	// released is when the generator let the call go.
	due, released, decoded time.Time
	frame                  *stmtFrame
	// received is set by the collector once the reader handed the call
	// over; frame and decoded are read only then. The collector checks
	// the frame at once, keeps ok and rows, and drops it, so the
	// benchmark's own heap does not grow with the run.
	received bool
	ok       bool
	rows     int
	// done is the sending phase's completion callback, run by the reader.
	done func(*stmtCall)
}

// stmtClient is one pipelined client connection: calls go out tagged,
// a reader goroutine hands each decoded frame to its call's callback.
type stmtClient struct {
	conn       net.Conn
	readerDone chan struct{}

	mu      sync.Mutex
	pending map[string]*stmtCall
}

func newStmtClient(conn net.Conn) *stmtClient {
	c := &stmtClient{conn: conn, readerDone: make(chan struct{}), pending: map[string]*stmtCall{}}
	go c.read()
	return c
}

func (c *stmtClient) read() {
	defer close(c.readerDone)
	dec := json.NewDecoder(c.conn)
	for {
		var f stmtFrame
		if err := dec.Decode(&f); err != nil {
			return
		}
		now := time.Now()
		c.mu.Lock()
		call := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if call == nil {
			continue
		}
		call.decoded, call.frame = now, &f
		call.done(call)
	}
}

func (c *stmtClient) send(call *stmtCall) error {
	c.mu.Lock()
	c.pending[call.id] = call
	c.mu.Unlock()
	// A write blocks while the door's window is full; the deadline keeps
	// a wedged system from hanging the benchmark.
	if err := c.conn.SetWriteDeadline(time.Now().Add(stmtDrain)); err != nil {
		return err
	}
	_, err := io.WriteString(c.conn, "#"+call.id+" "+stmtText(call.op)+" -- "+call.id+"\n")
	return err
}

func stmtText(op stmtOp) string {
	switch op.kind {
	case stmtPinned:
		return `SELECT s.id, s.accel_x FROM sensor s WHERE s.id = "` + moteID(op.mote) + `"`
	case stmtBroadcast:
		return "SELECT s.id, s.accel_x FROM sensor s"
	case stmtShowQueries:
		return "SHOW QUERIES"
	default:
		return `\metrics`
	}
}

// stmtDrain bounds how long a phase waits for answers after its last
// statement was due.
const stmtDrain = 10 * time.Second

// openLoop sends each op at its due time, round-robin over the clients,
// and returns every call once all have answered, each checked by check,
// or the drain expired.
func (s *stmtSystem) openLoop(prefix string, ops []stmtOp, start time.Time, check func(*stmtCall)) []*stmtCall {
	calls := make([]*stmtCall, len(ops))
	done := make(chan *stmtCall, len(calls))
	for i, op := range ops {
		calls[i] = &stmtCall{id: fmt.Sprintf("%s%d", prefix, i), op: op, due: start.Add(op.at),
			done: func(call *stmtCall) { done <- call }}
	}
	var senders sync.WaitGroup
	for ci, c := range s.clients {
		// The generator releases each call at its due time into a queue
		// that a writer drains: a write the door holds up (a full window,
		// an inline control statement) delays that call, which its latency
		// shows, but never the release of later calls.
		queue := make(chan *stmtCall, len(calls))
		senders.Add(2)
		go func(ci int) {
			defer senders.Done()
			defer close(queue)
			for i := ci; i < len(calls); i += len(s.clients) {
				time.Sleep(time.Until(calls[i].due))
				calls[i].released = time.Now()
				queue <- calls[i]
			}
		}(ci)
		go func(c *stmtClient) {
			defer senders.Done()
			for call := range queue {
				if c.send(call) != nil {
					return
				}
			}
		}(c)
	}
	last := start
	if len(ops) > 0 {
		last = calls[len(calls)-1].due
	}
	collect(done, len(calls), last.Add(stmtDrain), check)
	senders.Wait()
	return calls
}

// closedLoop keeps stmtWindow statements in flight per client until d
// has passed, then waits for the stragglers. It returns the sent calls
// and the completed statements per second.
func (s *stmtSystem) closedLoop(ops []stmtOp, d time.Duration, check func(*stmtCall)) ([]*stmtCall, float64) {
	start := time.Now()
	end := start.Add(d)
	done := make(chan *stmtCall, len(ops))
	var next atomic.Int64
	var sentMu sync.Mutex
	var sent []*stmtCall
	var senders sync.WaitGroup
	for _, c := range s.clients {
		slots := make(chan struct{}, stmtWindow)
		release := func(call *stmtCall) {
			<-slots
			done <- call
		}
		senders.Add(1)
		go func(c *stmtClient) {
			defer senders.Done()
			timer := time.NewTimer(time.Until(end))
			defer timer.Stop()
			for {
				select {
				case slots <- struct{}{}:
				case <-timer.C:
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					<-slots
					return
				}
				call := &stmtCall{id: fmt.Sprintf("c%d", i), op: ops[i], done: release}
				sentMu.Lock()
				sent = append(sent, call)
				sentMu.Unlock()
				if c.send(call) != nil {
					return
				}
			}
		}(c)
	}
	senders.Wait()
	collect(done, len(sent), time.Now().Add(stmtDrain), check)
	var lastDone time.Time
	n := 0
	for _, call := range sent {
		if call.received {
			n++
			if call.decoded.After(lastDone) {
				lastDone = call.decoded
			}
		}
	}
	return sent, ratio(float64(n), lastDone.Sub(start).Seconds())
}

// collect receives n completions, marking each received and checking
// it, or gives up at deadline.
func collect(done <-chan *stmtCall, n int, deadline time.Time, check func(*stmtCall)) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for i := 0; i < n; i++ {
		select {
		case call := <-done:
			call.received = true
			check(call)
			call.frame = nil
		case <-timer.C:
			return
		}
	}
}

// stmtCounters are the public snapshot counters a phase differences.
type stmtCounters struct {
	comm                     commTotals
	shed                     float64
	routerBytes, deviceBytes float64
}

func (s *stmtSystem) counters() stmtCounters {
	var c stmtCounters
	for _, e := range s.engines {
		addComm(&c.comm, e.CommMetrics())
	}
	for _, d := range s.doors {
		c.shed += float64(d.Metrics().Shed)
	}
	if s.tr != nil {
		c.routerBytes = float64(s.tr.routerBytes.Load())
		c.deviceBytes = float64(s.tr.deviceBytes.Load())
	}
	return c
}

func (s *stmtSystem) run(sch *schedule, closedLoop bool) *phase {
	p := newPhase()
	// Warm-up: unmeasured, but its answers are checked too.
	warm := make([]stmtOp, len(sch.warm))
	for i, op := range sch.warm {
		op.at = time.Duration(i) * 5 * time.Millisecond
		warm[i] = op
	}
	s.openLoop("w", warm, time.Now(), func(call *stmtCall) { s.check(newPhase(), p, call) })
	if s.tr != nil {
		for _, l := range s.tr.reads {
			l.take()
		}
	}

	before := s.counters()
	win := beginWindow()
	calls := s.openLoop("q", sch.stmts, time.Now().Add(5*time.Millisecond), func(call *stmtCall) { s.check(p, p, call) })
	p.win = win.end()
	after := s.counters()

	rows := 0.0
	for _, call := range calls {
		p.attempted++
		if !call.released.IsZero() {
			p.late = append(p.late, ms(call.released.Sub(call.due)))
		}
		if !call.received {
			p.fail(failMissed)
			continue
		}
		if !call.ok {
			continue
		}
		rows += float64(call.rows)
		p.completed++
		p.lat = append(p.lat, ms(call.decoded.Sub(call.due)))
	}
	if s.tr != nil {
		s.layers(p, calls, before, after, rows)
	}
	if closedLoop {
		// Closed-loop answers are checked and failures counted, but only
		// the open-loop window feeds latency and cpu_ms_per_op.
		sent, peak := s.closedLoop(sch.closed, closedLoopWindow(sch.window), func(call *stmtCall) { s.check(p, p, call) })
		for _, call := range sent {
			p.attempted++
			if !call.received {
				p.fail(failMissed)
			}
		}
		p.peak = peak
	}
	return p
}

// check validates one received statement's answer against the generated
// input and the router's shard map, counting failures on fails and wrong
// answers on wrong, and records the verdict and row count on the call.
func (s *stmtSystem) check(fails, wrong *phase, call *stmtCall) {
	call.rows, call.ok = s.verdict(fails, wrong, call)
}

func (s *stmtSystem) verdict(fails, wrong *phase, call *stmtCall) (int, bool) {
	f := call.frame
	switch {
	case !f.OK && (f.Code == frontdoor.CodeOverloaded || f.Code == frontdoor.CodeRateLimited):
		fails.fail(failShed)
		return 0, false
	case !f.OK:
		fails.fail(failError)
		return 0, false
	}
	bad := func(format string, args ...any) (int, bool) {
		wrong.wrongAnswer("%s (%s): "+format, append([]any{call.id, stmtText(call.op)}, args...)...)
		return 0, false
	}
	switch call.op.kind {
	case stmtPinned:
		want := moteID(call.op.mote)
		if len(f.Rows) != 1 {
			return bad("%d rows, want 1", len(f.Rows))
		}
		if err := s.checkRow(f.Rows[0]); err != "" {
			return bad("%s", err)
		}
		if got := f.Rows[0]["s.id"]; got != want {
			return bad("row for %v, want %s", got, want)
		}
	case stmtBroadcast:
		if len(f.Rows) != stmtMotes {
			return bad("%d rows, want %d", len(f.Rows), stmtMotes)
		}
		seen := map[any]bool{}
		for _, row := range f.Rows {
			if err := s.checkRow(row); err != "" {
				return bad("%s", err)
			}
			if seen[row["s.id"]] {
				return bad("mote %v twice", row["s.id"])
			}
			seen[row["s.id"]] = true
		}
	case stmtShowQueries:
		if len(f.Queries) != 0 {
			return bad("%d queries, want none", len(f.Queries))
		}
	case stmtMetrics:
		if f.Cluster == nil || len(f.Cluster.Shards) != stmtShards {
			return bad("metrics frame without %d shard sections", stmtShards)
		}
	}
	return len(f.Rows), true
}

// checkRow checks one sensor row: a known mote, tagged with the shard
// that owns it, carrying a numeric reading.
func (s *stmtSystem) checkRow(row map[string]any) string {
	id, _ := row["s.id"].(string)
	owner, known := s.owner[id]
	switch {
	case !known:
		return fmt.Sprintf("unknown mote %v", row["s.id"])
	case row["shard"] != owner:
		return fmt.Sprintf("%s answered by %v, owner is %s", id, row["shard"], owner)
	}
	if _, ok := row["s.accel_x"].(float64); !ok {
		return fmt.Sprintf("%s accel_x is %T", id, row["s.accel_x"])
	}
	return ""
}

// layers derives the statement-path per-layer metrics of a traced phase.
// Per op: wait (due → router exec entry) + route (router exec minus the
// slowest shard exec) + slowest shard exec + reply (router exec return →
// frame decoded) = end-to-end time.
func (s *stmtSystem) layers(p *phase, calls []*stmtCall, before, after stmtCounters, rows float64) {
	var wait, reply, route, exec, skew []float64
	shards := 0
	s.tr.mu.Lock()
	for _, call := range calls {
		if !call.ok {
			continue
		}
		e2e := ms(call.decoded.Sub(call.due))
		p.e2eMs += e2e
		sp := s.tr.ops[call.id]
		if sp == nil || sp.routerIn.IsZero() || len(sp.shards) == 0 {
			p.unattributedMs += e2e
			continue
		}
		slow, fast := sp.shards[0], sp.shards[0]
		for _, d := range sp.shards {
			slow, fast = max(slow, d), min(fast, d)
			exec = append(exec, ms(d))
		}
		shards += len(sp.shards)
		w := ms(sp.routerIn.Sub(call.due))
		r := ms(sp.routerOut.Sub(sp.routerIn) - slow)
		rp := ms(call.decoded.Sub(sp.routerOut))
		wait, route, reply = append(wait, w), append(route, r), append(reply, rp)
		if call.op.kind == stmtBroadcast {
			skew = append(skew, ms(slow-fast))
		}
		sum := max(w, 0) + max(r, 0) + ms(slow) + max(rp, 0)
		p.unattributedMs += max(e2e-sum, sum-e2e)
	}
	s.tr.mu.Unlock()

	ops := float64(p.completed)
	d := after.comm.sub(before.comm)
	l := p.layer
	l["frontdoor.wait_ms_p50"] = quantile(wait, 0.50)
	l["frontdoor.wait_ms_p99"] = quantile(wait, 0.99)
	l["frontdoor.reply_ms_p50"] = quantile(reply, 0.50)
	l["frontdoor.shed_pct"] = 100 * ratio(after.shed-before.shed, float64(p.attempted))
	l["cluster.route_ms_p50"] = quantile(route, 0.50)
	l["cluster.route_ms_p99"] = quantile(route, 0.99)
	l["cluster.shards_per_op"] = ratio(float64(shards), ops)
	l["cluster.bytes_per_op"] = ratio(after.routerBytes-before.routerBytes, ops)
	l["cluster.skew_ms_p99"] = quantile(skew, 0.99)
	l["core.exec_ms_p50"] = quantile(exec, 0.50)
	l["core.exec_ms_p99"] = quantile(exec, 0.99)
	l["core.rows_per_read"] = ratio(rows, d.reads)
	var scans []float64
	for _, log := range s.tr.reads {
		scans = append(scans, burstSpans(log.take(), stmtScanGap)...)
	}
	commLayer(l, d, ops, after.deviceBytes-before.deviceBytes, scans)
}

// stmtScanGap separates two scans' read bursts on one shard. Statements
// arrive several milliseconds apart on average, and one scan's reads
// land within a fraction of a millisecond of each other; bursts of
// overlapping statements merge, so comm.scan_ms is an upper estimate on
// this workload.
const stmtScanGap = 500 * time.Microsecond
