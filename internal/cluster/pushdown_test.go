package cluster

import (
	"context"
	"fmt"
	"testing"

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

// TestRouterPinnedSelectReadsOneDevice: end to end through the router,
// the shard front doors and ShardExec, a statement pinned by id reaches
// only its owner shard, and that shard acquires only the pinned device —
// one device read across the whole cluster.
func TestRouterPinnedSelectReadsOneDevice(t *testing.T) {
	const motes = 16
	// Real time, so no read overruns its TIMEOUT and drops a row.
	clk := vclock.Real{}
	network := netsim.NewNetwork(clk, 1)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	ids := []string{"shard-1", "shard-2"}
	pins := map[string]string{}
	var entries []DeviceEntry
	for k := 1; k <= motes; k++ {
		id := fmt.Sprintf("mote-%d", k)
		pins[id] = ids[k%2]
		entries = append(entries, DeviceEntry{ID: id, Type: profile.DeviceSensor})
		lis, err := network.Listen(id)
		if err != nil {
			t.Fatal(err)
		}
		srv := device.Serve(lis, mote.New(id, geo.Point{X: float64(k)}, clk, mote.Config{Seed: int64(k)}))
		t.Cleanup(func() { _ = srv.Close() })
	}

	var engines []*core.Engine
	var infos []ShardInfo
	for _, shard := range ids {
		eng, err := core.New(core.Config{Clock: clk, Dialer: network})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Start(ctx); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Stop)
		for id, owner := range pins {
			if owner != shard {
				continue
			}
			if err := eng.RegisterDevice(comm.DeviceInfo{ID: id, Type: profile.DeviceSensor, Addr: id}, geo.Mount{}); err != nil {
				t.Fatal(err)
			}
		}
		door := frontdoor.New(frontdoor.Config{Clock: vclock.Real{}})
		t.Cleanup(door.Close)
		lis, err := network.Listen("fd-" + shard)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = lis.Close() })
		exec := ShardExec(eng, door)
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				go door.Serve(ctx, conn, exec)
			}
		}()
		engines = append(engines, eng)
		infos = append(infos, ShardInfo{ID: shard, Addr: "fd-" + shard})
	}

	r, err := NewRouter(RouterConfig{Shards: infos, Pins: pins, Dialer: network})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.SetDevices(entries)

	reads := func() (n int64) {
		for _, eng := range engines {
			n += eng.CommMetrics().Reads
		}
		return n
	}
	for _, tt := range []struct {
		sql         string
		rows, reads int
	}{
		{`SELECT s.id, s.accel_x FROM sensor s WHERE s.id = "mote-5"`, 1, 1},
		{`SELECT s.id, s.accel_x FROM sensor s`, motes, motes},
	} {
		before := reads()
		resp := asResponse(t, r.Exec(ctx, "", tt.sql))
		if !resp.OK {
			t.Fatalf("%s: %s", tt.sql, resp.Error)
		}
		if got := reads() - before; len(resp.Rows) != tt.rows || got != int64(tt.reads) {
			t.Errorf("%s: %d rows for %d reads, want %d rows for %d reads", tt.sql, len(resp.Rows), got, tt.rows, tt.reads)
		}
	}
}
