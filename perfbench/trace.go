package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aorta/internal/comm"
	"aorta/internal/device"
	"aorta/internal/netsim"
)

// The traced run interposes only wrappers around public entry points of
// the layers: a netsim.Dialer that counts connection bytes and a
// device.Model that timestamps reads (here), frontdoor.Exec functions
// that time each statement (stmt.go), and device.Model wrappers that time
// action Execs (event.go). Untraced runs build the same stack without
// them.

// countingDialer counts the bytes read (and, with writes set, written)
// on every connection it dials.
type countingDialer struct {
	inner  netsim.Dialer
	n      *atomic.Int64
	writes bool
}

func (d *countingDialer) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := d.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: d.n, writes: d.writes}, nil
}

type countingConn struct {
	net.Conn
	n      *atomic.Int64
	writes bool
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.writes {
		c.n.Add(int64(n))
	}
	return n, err
}

// timeLog collects event timestamps from many goroutines.
type timeLog struct {
	mu sync.Mutex
	ts []time.Time
}

func (l *timeLog) add(t time.Time) {
	l.mu.Lock()
	l.ts = append(l.ts, t)
	l.mu.Unlock()
}

// take returns the collected timestamps and starts a new log.
func (l *timeLog) take() []time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.ts
	l.ts = nil
	return out
}

// readTracer timestamps every attribute read a device serves.
type readTracer struct {
	device.Model
	log *timeLog
}

func (r *readTracer) ReadAttr(name string) (any, error) {
	v, err := r.Model.ReadAttr(name)
	r.log.add(time.Now())
	return v, err
}

// commTotals sums the comm layer's counters over a system's engines.
type commTotals struct {
	reads, readFails, execFails, dials, dialFails, probeFails, hits, misses float64
}

func addComm(t *commTotals, s comm.MetricsSnapshot) {
	t.reads += float64(s.Reads)
	t.readFails += float64(s.ReadFailures)
	t.execFails += float64(s.ExecFailures)
	t.dials += float64(s.Dials)
	t.dialFails += float64(s.DialFailures)
	t.probeFails += float64(s.ProbeFailures)
	t.hits += float64(s.PoolHits)
	t.misses += float64(s.PoolMisses)
}

func (t commTotals) sub(o commTotals) commTotals {
	return commTotals{
		reads: t.reads - o.reads, readFails: t.readFails - o.readFails,
		execFails: t.execFails - o.execFails, dials: t.dials - o.dials,
		dialFails: t.dialFails - o.dialFails, probeFails: t.probeFails - o.probeFails,
		hits: t.hits - o.hits, misses: t.misses - o.misses,
	}
}

// commLayer fills the comm.* per-layer metrics shared by every workload.
func commLayer(layer map[string]float64, d commTotals, ops, deviceBytes float64, scans []float64) {
	layer["comm.reads_per_op"] = ratio(d.reads, ops)
	layer["comm.bytes_per_read"] = ratio(deviceBytes, d.reads)
	layer["comm.scan_ms_p50"] = quantile(scans, 0.50)
	layer["comm.scan_ms_p99"] = quantile(scans, 0.99)
	layer["comm.pool_hit_pct"] = 100 * ratio(d.hits, d.hits+d.misses)
	layer["comm.dials_per_kop"] = 1000 * ratio(d.dials, ops)
	layer["comm.fail_per_kop"] = 1000 * ratio(d.readFails+d.execFails+d.dialFails+d.probeFails, ops)
}
