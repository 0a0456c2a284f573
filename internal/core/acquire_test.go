package core_test

import (
	"context"
	"strings"
	"testing"

	"aorta/internal/core"
	"aorta/internal/lab"
)

const acquireMotes = 64

// readsOf runs one ad-hoc statement and returns its rows and the device
// reads it cost.
func readsOf(t testing.TB, eng *core.Engine, sql string) ([]map[string]any, int64) {
	t.Helper()
	before := eng.CommMetrics().Reads
	res, err := eng.Exec(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Rows, eng.CommMetrics().Reads - before
}

// TestAdhocAcquisitionReads pins the acquisition pushdown to exact device
// read counts: a SELECT reads only the devices its static conjuncts admit.
func TestAdhocAcquisitionReads(t *testing.T) {
	// Unscaled time, so no read overruns its TIMEOUT and drops a row.
	l := newLab(t, lab.Config{Motes: acquireMotes, ClockScale: 1})
	eng := l.Engine
	// lab.New assigns depth 1 + i%3 to mote-(i+1), so depth 2 holds
	// mote-2, mote-5, …, mote-62. mote-9 (depth 3) leaves the network.
	depth2 := (acquireMotes + 1) / 3
	eng.UnregisterDevice("mote-9")

	const all = acquireMotes - 1
	for _, tt := range []struct {
		name        string
		where       string
		rows, reads int
	}{
		{"pinned", `WHERE s.id = "mote-7"`, 1, 1},
		{"pinned, literal first", `WHERE "mote-7" = s.id AND s.accel_x > -100000`, 1, 1},
		{"broadcast", ``, all, all},
		{"unknown id", `WHERE s.id = "mote-999"`, 0, 0},
		{"unregistered id", `WHERE s.id = "mote-9"`, 0, 0},
		{"id of another type", `WHERE s.id = "camera-1"`, 0, 0},
		{"contradictory ids", `WHERE s.id = "mote-7" AND s.id = "mote-8"`, 0, 0},
		{"static non-id", `WHERE s.depth = 2`, depth2, depth2},
		{"static range and sensory", `WHERE s.depth >= 2 AND s.depth < 3 AND s.accel_x > -100000`, depth2, depth2},
		{"static under OR is not pushed", `WHERE s.depth = 2 OR s.id = "mote-1"`, depth2 + 1, all},
	} {
		t.Run(tt.name, func(t *testing.T) {
			rows, reads := readsOf(t, eng, "SELECT s.id, s.accel_x FROM sensor s "+tt.where)
			if len(rows) != tt.rows || reads != int64(tt.reads) {
				t.Errorf("%d rows for %d reads, want %d rows for %d reads", len(rows), reads, tt.rows, tt.reads)
			}
		})
	}
}

// BenchmarkAdhocPinnedSelect measures the statement path's commonest
// shape, an ad-hoc SELECT pinned to one device by id, on a 64-mote
// engine. reads/op is host-stable: 1 with the acquisition pushdown, 64
// without it.
func BenchmarkAdhocPinnedSelect(b *testing.B) {
	l, err := lab.New(lab.Config{Motes: acquireMotes, ClockScale: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	if err := l.Engine.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	const sql = `SELECT s.id, s.accel_x FROM sensor s WHERE s.id = "mote-7"`
	ctx := context.Background()
	readsOf(b, l.Engine, sql) // dial the pooled session outside the timer
	before := l.Engine.CommMetrics().Reads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := l.Engine.Exec(ctx, sql)
		if err != nil || len(res.Rows) != 1 {
			b.Fatalf("%v rows, err %v; want 1 row", res, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(l.Engine.CommMetrics().Reads-before)/float64(b.N), "reads/op")
}

// TestExplainAdhocPushdown: EXPLAIN of a statement without EVERY is an
// ad-hoc plan whose scan lines name the pushed conjuncts and how many
// devices the scan will acquire.
func TestExplainAdhocPushdown(t *testing.T) {
	l := newLab(t, lab.Config{})
	for _, tt := range []struct {
		sql, want string
	}{
		{`EXPLAIN SELECT s.accel_x FROM sensor s WHERE s.id = "mote-3" AND s.accel_x > 500`,
			`  scan sensor as s [accel_x, id] (acquires 1 of 10 devices, pushed id = "mote-3")`},
		{`EXPLAIN SELECT s.accel_x FROM sensor s WHERE s.depth >= 2`,
			`  scan sensor as s [accel_x, depth, id] (acquires 6 of 10 devices, pushed depth >= 2)`},
		{`EXPLAIN SELECT s.accel_x FROM sensor s WHERE s.id = 5`,
			`  scan sensor as s [accel_x, id] (acquires 10 of 10 devices)`},
	} {
		res, err := l.Engine.Exec(context.Background(), tt.sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Names) < 2 || res.Names[0] != "ad-hoc query" || res.Names[1] != tt.want {
			t.Errorf("%s:\n%s\nwant header %q and scan line %q", tt.sql, strings.Join(res.Names, "\n"), "ad-hoc query", tt.want)
		}
	}
}
