package comm

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aorta/internal/device"
	"aorta/internal/device/mote"
	"aorta/internal/geo"
	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/vclock"
)

// newMoteFarm serves n motes over an in-memory network behind a layer
// with the default pool configuration.
func newMoteFarm(tb testing.TB, clk vclock.Clock, n int) *Layer {
	tb.Helper()
	network := netsim.NewNetwork(clk, 1)
	reg, err := profile.DefaultRegistry()
	if err != nil {
		tb.Fatal(err)
	}
	layer := New(network, clk, reg)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("mote-%03d", i)
		pos := geo.Point{X: float64(i % 20), Y: float64(i / 20)}
		m := mote.New(id, pos, clk, mote.Config{Depth: 1 + i%3, Seed: int64(i)})
		ln, err := network.Listen(id)
		if err != nil {
			tb.Fatal(err)
		}
		srv := device.Serve(ln, m)
		tb.Cleanup(func() { srv.Close() })
		if err := layer.Register(DeviceInfo{ID: id, Type: m.Type(), Addr: id, Static: map[string]any{"loc": pos, "depth": 1 + i%3}}); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Cleanup(func() { _ = layer.Close() })
	return layer
}

// TestFullTypeScansDoNotThrashPool: with the default configuration,
// repeated scans of a device type larger than any fixed session cap dial
// each device once and reuse its session afterwards. The manual clock
// never advances, so no session can pass its idle TTL.
func TestFullTypeScansDoNotThrashPool(t *testing.T) {
	const motes, scans = 200, 5
	layer := newMoteFarm(t, vclock.NewManual(time.Unix(1_000_000, 0)), motes)
	ctx := context.Background()
	for i := 0; i < scans; i++ {
		b, report, err := layer.ScanBatch(ctx, "sensor", []string{"accel_x"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != motes || report.Skipped != 0 {
			t.Fatalf("scan %d: %d rows, %d skipped; want %d, 0", i, b.Len(), report.Skipped, motes)
		}
		b.Release()
	}
	m := layer.Metrics()
	if d := m.Dials.Load(); d != motes {
		t.Errorf("Dials = %d over %d scans of %d motes, want %d", d, scans, motes, motes)
	}
	if hits := m.PoolHits.Load(); hits != (scans-1)*motes {
		t.Errorf("PoolHits = %d, want %d", hits, (scans-1)*motes)
	}
	if ev := m.PoolEvictions.Load(); ev != 0 {
		t.Errorf("PoolEvictions = %d, want 0", ev)
	}
}

// BenchmarkScanBatchFarm: one full-type scan of 200 pooled motes per op,
// the continuous query's per-epoch acquisition. dials/op is host-stable
// (0 once the pool is warm).
func BenchmarkScanBatchFarm(b *testing.B) {
	layer := newMoteFarm(b, vclock.Real{}, 200)
	ctx := context.Background()
	scan := func() {
		batch, _, err := layer.ScanBatch(ctx, "sensor", []string{"accel_x", "temp"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		batch.Release()
	}
	scan() // open every pooled session
	dials := layer.Metrics().Dials.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	b.StopTimer()
	b.ReportMetric(float64(layer.Metrics().Dials.Load()-dials)/float64(b.N), "dials/op")
}
