package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"strings"
	"sync"

	"aorta/internal/frontdoor"
	"aorta/internal/liveness"
	"aorta/internal/match"
	"aorta/internal/netsim"
	"aorta/internal/sqlparse"
	"aorta/internal/vclock"
)

// ShardInfo names one engine instance and where to reach its front door.
type ShardInfo struct {
	ID   string
	Addr string
}

// DeviceEntry is one device the router knows about: enough to prune
// statement fan-out by device type and id.
type DeviceEntry struct {
	ID   string
	Type string
}

// RouterConfig sizes one Router.
type RouterConfig struct {
	// Shards is the cluster membership (required, at least one).
	Shards []ShardInfo
	// Pins is the manifest's device→shard affinity (optional).
	Pins map[string]string
	// Dialer connects to shard front doors (required; aortad uses
	// netsim.TCP, tests use in-memory networks).
	Dialer netsim.Dialer
	// Logger receives routing events. Nil discards them.
	Logger *slog.Logger
	// Health tunes the per-shard failure detector, probes and the
	// auto-retire control loop (see HealthConfig; the zero value enables
	// passive detection, the breaker and the dial backoff).
	Health HealthConfig
}

// Router fans front-door statements out to the shards whose device
// coverage they can touch and merges the responses into one client
// stream. Its Exec method is a frontdoor.Exec: the router IS a front
// door, speaking the same line protocol as a single-shard daemon, so
// existing clients work unchanged.
//
// Routing rules (see DESIGN.md "Cluster"):
//
//   - A SELECT/CREATE AQ goes to the intersection, over its FROM tables,
//     of the shards holding at least one device of that table's type; an
//     `alias.id = "<device>"` equality conjunct narrows a table to the
//     device's owner shard. A camera-only query therefore never lands on
//     a mote-only shard.
//   - With no device inventory (SetDevices never called) or an empty
//     intersection, management statements broadcast conservatively —
//     devices may register later — while ad-hoc SELECTs answer locally
//     with zero rows (no shard can contribute a tuple).
//   - DROP/STOP/START AQ follow the catalog entry recorded when the query
//     was created, falling back to broadcast for queries the router did
//     not create. SHOW and backslash controls broadcast and merge.
//
// Statements that succeed on some shards and fail on others return a
// typed "partial" error carrying the per-shard codes — never the first
// error alone.
type Router struct {
	lg     *slog.Logger
	dialer netsim.Dialer
	clk    vclock.Clock
	hcfg   HealthConfig
	// health is the per-shard failure detector (nil when disabled): the
	// same Up→Suspect→Down machine internal/liveness runs per device,
	// fed passively by every fan-out result plus the probe loop. brk and
	// backoff are the liveness breaker and dial backoff keyed by shard
	// id (both inert when disabled).
	health    *liveness.Detector
	brk       *liveness.Breaker
	backoff   *liveness.Backoff
	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup

	mu    sync.Mutex
	smap  *Map
	addrs map[string]string
	conns map[string]*shardConn
	// devices is the known inventory; typesByShard and ownerOf are
	// derived from it under the current shard map.
	devices      []DeviceEntry
	typesByShard map[string]map[string]int
	ownerOf      map[string]string
	// catalog records which shards hold each continuous query, and the
	// parsed SELECT so targets can be recomputed after membership change.
	catalog map[string]*catalogEntry
	// draining marks shards mid-DRAIN; healing marks shards with an
	// armed auto-retire grace timer; memEvents is the bounded
	// membership journal.
	draining  map[string]bool
	healing   map[string]bool
	memEvents []MembershipEvent
}

type catalogEntry struct {
	sel     *sqlparse.Select
	targets []string
}

// NewRouter builds a router over the given shard membership.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Dialer == nil {
		return nil, fmt.Errorf("cluster: RouterConfig.Dialer is required")
	}
	ids := make([]string, 0, len(cfg.Shards))
	addrs := make(map[string]string, len(cfg.Shards))
	for _, s := range cfg.Shards {
		ids = append(ids, s.ID)
		addrs[s.ID] = s.Addr
	}
	smap, err := NewMap(ids, cfg.Pins)
	if err != nil {
		return nil, err
	}
	lg := cfg.Logger
	if lg == nil {
		lg = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	hcfg := cfg.Health.resolve()
	r := &Router{
		lg:       lg,
		dialer:   cfg.Dialer,
		clk:      hcfg.Clock,
		hcfg:     hcfg,
		smap:     smap,
		addrs:    addrs,
		conns:    make(map[string]*shardConn, len(ids)),
		catalog:  make(map[string]*catalogEntry),
		draining: make(map[string]bool),
		healing:  make(map[string]bool),
	}
	r.runCtx, r.runCancel = context.WithCancel(context.Background())
	if hcfg.Disabled {
		r.brk = liveness.NewBreaker(r.clk, liveness.BreakerConfig{Threshold: -1})
		r.backoff = liveness.NewBackoff(r.clk, -1, 0)
	} else {
		r.brk = liveness.NewBreaker(r.clk, liveness.BreakerConfig{})
		r.backoff = liveness.NewBackoff(r.clk, 0, 0)
		r.health = liveness.New(hcfg.Clock, liveness.Config{
			SuspectAfter: hcfg.SuspectAfter,
			DownAfter:    hcfg.DownAfter,
			DownRetry:    hcfg.DownRetry,
		})
		r.health.Subscribe(func(ev liveness.Event) {
			if ev.To == liveness.Down {
				r.onShardDown(ev.Device, ev.Reason)
			}
		})
	}
	for _, s := range cfg.Shards {
		r.conns[s.ID] = &shardConn{id: s.ID, addr: s.Addr, dialer: r.dialer, lg: r.lg}
	}
	if r.health != nil && hcfg.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Map returns the current shard map.
func (r *Router) Map() *Map {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.smap
}

// SetDevices installs the device inventory the router prunes fan-out
// with. Owners come from the shard map; calling it again (after
// registrations or membership change) recomputes the derived indexes.
func (r *Router) SetDevices(devices []DeviceEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.devices = append([]DeviceEntry(nil), devices...)
	r.reindexLocked()
}

// reindexLocked rebuilds typesByShard/ownerOf from devices under the
// current map, and recomputes every catalog entry's targets.
func (r *Router) reindexLocked() {
	r.typesByShard = make(map[string]map[string]int, len(r.addrs))
	r.ownerOf = make(map[string]string, len(r.devices))
	for _, s := range r.smap.Shards() {
		r.typesByShard[s] = make(map[string]int)
	}
	for _, d := range r.devices {
		owner := r.smap.Owner(d.ID)
		r.ownerOf[d.ID] = owner
		r.typesByShard[owner][d.Type]++
	}
	for _, ce := range r.catalog {
		ce.targets = r.targetsLocked(ce.sel, true)
	}
}

// Retire removes a dead or rebalanced-away shard from the membership:
// its connection closes, the shard map shrinks, and the inventory and
// catalog targets are recomputed so subsequent statements route to the
// survivors. Pair it with PlanHandoff/Adopt to move the shard's journaled
// state; Retire alone only stops routing to it.
func (r *Router) Retire(shardID string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.smap.Contains(shardID) {
		return fmt.Errorf("cluster: unknown shard %q", shardID)
	}
	if len(r.smap.Shards()) == 1 {
		return fmt.Errorf("cluster: cannot retire the last shard %q", shardID)
	}
	var survivors []string
	for _, s := range r.smap.Shards() {
		if s != shardID {
			survivors = append(survivors, s)
		}
	}
	smap, err := r.smap.WithShards(survivors)
	if err != nil {
		return err
	}
	r.smap = smap
	conn := r.conns[shardID]
	delete(r.conns, shardID)
	delete(r.addrs, shardID)
	r.reindexLocked()
	r.mu.Unlock()
	// Closed outside r.mu: close waits for a dial in flight on the
	// connection, and that must not stall the rest of the router.
	if conn != nil {
		conn.close()
	}
	// The shard left the membership; its health entries would otherwise
	// hold stale Down, open-circuit or backoff state if the id rejoins.
	if r.health != nil {
		r.health.Forget(shardID)
	}
	r.brk.Reset(shardID)
	r.backoff.Clear(shardID)
	r.recordEvent(shardID, "retired", "removed from membership")
	r.mu.Lock()
	return nil
}

// Close drops every shard connection and stops the health apparatus.
func (r *Router) Close() {
	r.runCancel()
	r.mu.Lock()
	conns := make([]*shardConn, 0, len(r.conns))
	for _, c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	r.wg.Wait()
}

// Response is the router's JSON frame: the single-shard daemon response
// shape plus cluster-only fields (per-shard codes on partial failure, the
// aggregated metrics breakdown, and a "shard" column on merged rows).
type Response struct {
	ID      string           `json:"id,omitempty"`
	OK      bool             `json:"ok"`
	Code    string           `json:"code,omitempty"`
	Error   string           `json:"error,omitempty"`
	Message string           `json:"message,omitempty"`
	Rows    []map[string]any `json:"rows,omitempty"`
	Queries []map[string]any `json:"queries,omitempty"`
	Names   []string         `json:"names,omitempty"`
	Photos  []map[string]any `json:"photos,omitempty"`
	// Metrics is the cross-shard aggregate (summed counters, weighted
	// mean latency); Cluster carries the per-shard breakdown.
	Metrics map[string]any  `json:"metrics,omitempty"`
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
	// Shards maps shard id → "ok" or its error code for statements that
	// diverged across shards (Code == "partial") — and for broadcasts, so
	// clients always see who answered.
	Shards map[string]string `json:"shards,omitempty"`
	// Router carries the per-shard health view and the membership
	// journal on \metrics frames.
	Router *RouterHealth `json:"router,omitempty"`
}

// ClusterMetrics is the aggregated \metrics view.
type ClusterMetrics struct {
	Shards    []ShardMetrics `json:"shards"`
	Aggregate map[string]any `json:"aggregate,omitempty"`
}

// ShardMetrics is one shard's slice of the cluster \metrics frame.
type ShardMetrics struct {
	Shard     string         `json:"shard"`
	Metrics   map[string]any `json:"metrics,omitempty"`
	Frontdoor map[string]any `json:"frontdoor,omitempty"`
	Wal       map[string]any `json:"wal,omitempty"`
}

// Exec routes one statement. It is a frontdoor.Exec: serve the router
// behind a frontdoor.Door and the cluster speaks the daemon's exact line
// protocol.
func (r *Router) Exec(ctx context.Context, id, stmt string) any {
	if strings.HasPrefix(stmt, "\\") {
		resp := r.merge(id, stmt, r.fanout(ctx, stmt, r.allShards()))
		if f := strings.Fields(stmt); len(f) > 0 && f[0] == "\\metrics" {
			// The membership view rides the metrics frame even when a dead
			// shard makes the fan-out partial — that is exactly when the
			// client needs it.
			resp.Router = r.Health()
		}
		return resp
	}
	if victim, ok := parseDrainShard(stmt); ok {
		return r.execDrain(ctx, id, victim)
	}
	st, err := sqlparse.Parse(stmt)
	if err != nil {
		return &frontdoor.ErrorResponse{ID: id, Error: err.Error()}
	}
	switch s := st.(type) {
	case *sqlparse.CreateAQ:
		targets := r.targets(s.Select, true)
		resp := r.merge(id, stmt, r.fanout(ctx, stmt, targets))
		if resp.OK {
			r.mu.Lock()
			r.catalog[s.Name] = &catalogEntry{sel: s.Select, targets: targets}
			r.mu.Unlock()
		}
		return resp
	case *sqlparse.Select:
		targets := r.targets(s, false)
		if len(targets) == 0 {
			return &Response{ID: id, OK: true, Message: "0 rows (no shard covers this query)"}
		}
		return r.merge(id, stmt, r.fanout(ctx, stmt, targets))
	case *sqlparse.Explain:
		targets := r.targets(s.Select, true)
		return r.merge(id, stmt, r.fanout(ctx, stmt, targets))
	case *sqlparse.DropAQ:
		resp := r.merge(id, stmt, r.fanout(ctx, stmt, r.queryTargets(s.Name)))
		if resp.OK {
			r.mu.Lock()
			delete(r.catalog, s.Name)
			r.mu.Unlock()
		}
		return resp
	case *sqlparse.StopAQ:
		return r.merge(id, stmt, r.fanout(ctx, stmt, r.queryTargets(s.Name)))
	case *sqlparse.StartAQ:
		return r.merge(id, stmt, r.fanout(ctx, stmt, r.queryTargets(s.Name)))
	default:
		// CREATE ACTION, SHOW, …: cluster-wide state, broadcast.
		return r.merge(id, stmt, r.fanout(ctx, stmt, r.allShards()))
	}
}

func (r *Router) allShards() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.smap.Shards()
}

// queryTargets resolves a query-lifecycle statement to the shards holding
// the query: the catalog entry when the router created it, else every
// shard (the query may predate this router).
func (r *Router) queryTargets(name string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ce, ok := r.catalog[name]; ok && len(ce.targets) > 0 {
		return append([]string(nil), ce.targets...)
	}
	return r.smap.Shards()
}

func (r *Router) targets(sel *sqlparse.Select, broadcastWhenEmpty bool) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.targetsLocked(sel, broadcastWhenEmpty)
	return t
}

// targetsLocked computes the shards a SELECT can touch: for each FROM
// table, the shards holding at least one device of that type, narrowed to
// a single owner when the WHERE pins the table's id to a literal; the
// result is the intersection across tables (every table must be locally
// satisfiable — shards evaluate over their own devices only, there are no
// cross-shard joins). Without inventory the answer is every shard; with
// inventory but an empty intersection, broadcastWhenEmpty picks between
// broadcasting (management: devices may register later) and routing
// nowhere (ad-hoc reads).
func (r *Router) targetsLocked(sel *sqlparse.Select, broadcastWhenEmpty bool) []string {
	all := r.smap.Shards()
	if len(r.devices) == 0 {
		return all
	}
	candidates := make(map[string]bool, len(all))
	for _, s := range all {
		candidates[s] = true
	}
	for _, tr := range sel.From {
		withType := make(map[string]bool)
		for s, counts := range r.typesByShard {
			if counts[tr.Table] > 0 {
				withType[s] = true
			}
		}
		alias := tr.Name()
		owns := func(ref *sqlparse.ColumnRef) bool {
			if ref.Qualifier != "" {
				return ref.Qualifier == alias
			}
			return len(sel.From) == 1
		}
		for _, p := range match.Extract(sel.Where, owns) {
			if p.Attr != "id" || p.Op != match.OpEQ {
				continue
			}
			devID, ok := p.Value.(string)
			if !ok {
				continue
			}
			if owner, known := r.ownerOf[devID]; known {
				for s := range withType {
					if s != owner {
						delete(withType, s)
					}
				}
			}
		}
		for s := range candidates {
			if !withType[s] {
				delete(candidates, s)
			}
		}
	}
	out := make([]string, 0, len(candidates))
	for s := range candidates {
		out = append(out, s)
	}
	sort.Strings(out)
	if len(out) == 0 && broadcastWhenEmpty {
		return all
	}
	return out
}

// shardResult is one shard's answer to a fanned-out statement.
type shardResult struct {
	shard string
	frame *shardFrame
	err   error
}

// fanout sends stmt to every target shard concurrently and collects the
// answers in shard order.
func (r *Router) fanout(ctx context.Context, stmt string, targets []string) []shardResult {
	results := make([]shardResult, len(targets))
	var wg sync.WaitGroup
	for i, shard := range targets {
		r.mu.Lock()
		conn := r.conns[shard]
		r.mu.Unlock()
		if conn == nil {
			results[i] = shardResult{shard: shard, err: fmt.Errorf("cluster: shard %s retired", shard)}
			continue
		}
		wg.Add(1)
		go func(i int, shard string, conn *shardConn) {
			defer wg.Done()
			f, err := r.exec(ctx, conn, stmt)
			results[i] = shardResult{shard: shard, frame: f, err: err}
		}(i, shard, conn)
	}
	wg.Wait()
	return results
}

// merge folds per-shard answers into one client frame. All-success merges
// the payloads (rows/queries/photos tagged with their source shard,
// metrics aggregated); mixed success/failure is the typed "partial" error
// with per-shard codes; uniform failure propagates the shared code.
func (r *Router) merge(id, stmt string, results []shardResult) *Response {
	resp := &Response{ID: id, OK: true}
	if len(results) == 0 {
		resp.Message = "statement routed to no shards"
		return resp
	}
	codes := make(map[string]string, len(results))
	var failures []string
	for _, res := range results {
		switch {
		case res.err != nil:
			codes[res.shard] = frontdoor.CodeUnreachable
			failures = append(failures, fmt.Sprintf("%s: %v", res.shard, res.err))
		case !res.frame.OK:
			code := res.frame.Code
			if code == "" {
				code = "error"
			}
			codes[res.shard] = code
			failures = append(failures, fmt.Sprintf("%s: %s", res.shard, res.frame.Error))
		default:
			codes[res.shard] = "ok"
		}
	}
	if len(failures) > 0 {
		resp.OK = false
		resp.Shards = codes
		resp.Error = strings.Join(failures, "; ")
		resp.Code = frontdoor.CodePartial
		if len(failures) == len(results) {
			// Uniform failure is not partial: propagate the shared code so
			// clients can react by kind, falling back to partial when the
			// shards disagree about why they failed.
			uniform := codes[results[0].shard]
			for _, c := range codes {
				if c != uniform {
					uniform = frontdoor.CodePartial
					break
				}
			}
			resp.Code = uniform
		}
		r.lg.Warn("cluster: statement diverged across shards", "stmt", stmt, "codes", codes)
		return resp
	}

	single := len(results) == 1
	var messages []string
	var metrics []ShardMetrics
	for _, res := range results {
		f := res.frame
		for _, row := range f.Rows {
			resp.Rows = append(resp.Rows, tagShard(row, res.shard))
		}
		for _, q := range f.Queries {
			resp.Queries = append(resp.Queries, tagShard(q, res.shard))
		}
		for _, p := range f.Photos {
			resp.Photos = append(resp.Photos, tagShard(p, res.shard))
		}
		resp.Names = append(resp.Names, f.Names...)
		if f.Message != "" {
			if single {
				messages = append(messages, f.Message)
			} else {
				messages = append(messages, fmt.Sprintf("%s: %s", res.shard, f.Message))
			}
		}
		if f.Metrics != nil {
			metrics = append(metrics, ShardMetrics{
				Shard: res.shard, Metrics: f.Metrics, Frontdoor: f.Frontdoor, Wal: f.Wal,
			})
		}
	}
	if !single {
		resp.Names = dedupSorted(resp.Names)
		resp.Shards = codes
	}
	resp.Message = strings.Join(messages, "; ")
	if len(metrics) > 0 {
		resp.Cluster = &ClusterMetrics{Shards: metrics, Aggregate: aggregateMetrics(metrics)}
		resp.Metrics = resp.Cluster.Aggregate
	}
	return resp
}

// tagShard copies a row map with its source shard added, so merged
// streams stay attributable.
func tagShard(row map[string]any, shard string) map[string]any {
	out := make(map[string]any, len(row)+1)
	for k, v := range row {
		out[k] = v
	}
	out["shard"] = shard
	return out
}

func dedupSorted(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// aggregateMetrics sums the shards' engine counters into one cluster
// view. Counters add; FailureRate is recomputed from the summed totals
// and MeanLatency is weighted by each shard's request count, because
// averaging averages would let an idle shard dilute a loaded one.
func aggregateMetrics(shards []ShardMetrics) map[string]any {
	agg := make(map[string]any)
	var requests, latencyWeighted float64
	for _, sm := range shards {
		for k, v := range sm.Metrics {
			switch val := v.(type) {
			case float64:
				cur, _ := agg[k].(float64)
				agg[k] = cur + val
			case bool:
				cur, _ := agg[k].(bool)
				agg[k] = cur || val
			case map[string]any:
				cur, _ := agg[k].(map[string]any)
				if cur == nil {
					cur = make(map[string]any, len(val))
				}
				for fk, fv := range val {
					if fval, ok := fv.(float64); ok {
						c, _ := cur[fk].(float64)
						cur[fk] = c + fval
					}
				}
				agg[k] = cur
			}
		}
		req, _ := sm.Metrics["Requests"].(float64)
		lat, _ := sm.Metrics["MeanLatency"].(float64)
		requests += req
		latencyWeighted += req * lat
	}
	if requests > 0 {
		if succ, ok := agg["Successes"].(float64); ok {
			agg["FailureRate"] = (requests - succ) / requests
		}
		agg["MeanLatency"] = latencyWeighted / requests
	}
	return agg
}

// shardFrame mirrors the daemon's response frame for decoding; payload
// collections stay map-shaped so merging preserves fields the router
// does not interpret.
type shardFrame struct {
	ID        string           `json:"id"`
	OK        bool             `json:"ok"`
	Code      string           `json:"code"`
	Error     string           `json:"error"`
	Message   string           `json:"message"`
	Rows      []map[string]any `json:"rows"`
	Queries   []map[string]any `json:"queries"`
	Names     []string         `json:"names"`
	Photos    []map[string]any `json:"photos"`
	Metrics   map[string]any   `json:"metrics"`
	Frontdoor map[string]any   `json:"frontdoor"`
	Wal       map[string]any   `json:"wal"`
}

// errConnClosed marks a statement refused because the router already
// closed the shard's connection (Retire, Close): the router's own doing,
// not evidence about the shard.
var errConnClosed = errors.New("connection closed")

// exec sends one statement to a shard through the router's health
// toolkit: the shard's circuit breaker, then its dial backoff (inside
// shardConn.do), then the connection. The backoff sheds statements in
// microseconds while a redial would only burn a dial timeout; the
// breaker sheds while a shard flaps — connects, fails a few statements,
// dies — faster than consecutive-failure counting can catch. Shed
// statements fail with ErrShardShed. The outcome is judged by the
// evidence rule comm applies to devices: an answer or a transport
// failure feeds the breaker and the detector; a shed, a connection the
// router closed or a caller that gave up is not evidence and releases a
// half-open trial instead.
func (r *Router) exec(ctx context.Context, c *shardConn, stmt string) (*shardFrame, error) {
	if ok, _ := r.brk.Allow(c.id); !ok {
		return nil, fmt.Errorf("cluster: shard %s circuit open: %w", c.id, ErrShardShed)
	}
	f, err := c.do(ctx, stmt, r.backoff)
	if err != nil && (errors.Is(err, ErrShardShed) || errors.Is(err, errConnClosed) || ctx.Err() != nil) {
		r.brk.Abandon(c.id)
		return nil, err
	}
	r.brk.Record(c.id, err == nil)
	r.observeShard(c.id, err == nil)
	return f, err
}

// shardConn is one persistent pipelined connection to a shard's front
// door: statements go out tagged "#r<seq>", a demux goroutine dispatches
// response frames to their waiters by tag, and a transport error fails
// every pending statement and drops the conn — the next statement
// redials. Health state lives in the Router, keyed by shard id.
type shardConn struct {
	id     string
	addr   string
	dialer netsim.Dialer
	lg     *slog.Logger

	mu      sync.Mutex
	conn    net.Conn
	seq     int64
	pending map[string]chan *shardFrame
	closed  bool
}

// do sends one statement, dialing first when there is no connection
// unless bo still suppresses the redial (an ErrShardShed error). Dials
// are serialized under c.mu, and their outcome feeds bo — except a dial
// the caller's ctx aborted, which says nothing about the shard.
func (c *shardConn) do(ctx context.Context, stmt string, bo *liveness.Backoff) (*shardFrame, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: shard %s: %w", c.id, errConnClosed)
	}
	if c.conn == nil {
		if wait := bo.Remaining(c.id); wait > 0 {
			c.mu.Unlock()
			return nil, fmt.Errorf("cluster: shard %s in dial backoff for another %v: %w", c.id, wait, ErrShardShed)
		}
		conn, err := c.dialer.Dial(ctx, c.addr)
		if err != nil {
			if ctx.Err() == nil {
				bo.Fail(c.id)
			}
			c.mu.Unlock()
			return nil, fmt.Errorf("cluster: dial shard %s (%s): %w", c.id, c.addr, err)
		}
		bo.Clear(c.id)
		c.conn = conn
		c.pending = make(map[string]chan *shardFrame)
		go c.readLoop(conn)
	}
	c.seq++
	tag := fmt.Sprintf("r%d", c.seq)
	ch := make(chan *shardFrame, 1)
	c.pending[tag] = ch
	conn := c.conn
	c.mu.Unlock()

	if _, err := fmt.Fprintf(conn, "#%s %s\n", tag, stmt); err != nil {
		c.mu.Lock()
		if c.conn == conn {
			c.failLocked()
		}
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: shard %s write: %w", c.id, err)
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("cluster: shard %s connection lost mid-statement", c.id)
		}
		return f, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, tag)
		c.mu.Unlock()
		return nil, context.Cause(ctx)
	}
}

// readLoop demuxes response frames to waiting statements by tag.
func (c *shardConn) readLoop(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		var f shardFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			c.lg.Warn("cluster: undecodable shard frame", "shard", c.id, "err", err)
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- &f
		}
	}
	c.mu.Lock()
	if c.conn == conn {
		c.failLocked()
	}
	c.mu.Unlock()
}

// failLocked drops the connection and fails every pending statement.
// Caller holds c.mu.
func (c *shardConn) failLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	for tag, ch := range c.pending {
		delete(c.pending, tag)
		close(ch)
	}
}

func (c *shardConn) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.failLocked()
}
