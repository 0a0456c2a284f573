package comm

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"aorta/internal/device"
	"aorta/internal/device/camera"
	"aorta/internal/device/mote"
	"aorta/internal/device/phone"
	"aorta/internal/geo"
	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/vclock"
)

// testFarm wires two cameras, two motes and a phone into an in-memory
// network behind a communication layer.
type testFarm struct {
	layer   *Layer
	network *netsim.Network
	clk     *vclock.Scaled
	cams    []*camera.Camera
	motes   []*mote.Mote
	phones  []*phone.Phone
}

func newFarm(t *testing.T) *testFarm {
	t.Helper()
	clk := vclock.NewScaled(100)
	network := netsim.NewNetwork(clk, 1)
	reg, err := profile.DefaultRegistry()
	if err != nil {
		t.Fatal(err)
	}
	layer := New(network, clk, reg)
	f := &testFarm{layer: layer, network: network, clk: clk}

	serve := func(id string, m device.Model, static map[string]any) {
		l, err := network.Listen(id)
		if err != nil {
			t.Fatal(err)
		}
		srv := device.Serve(l, m)
		t.Cleanup(func() { srv.Close() })
		if err := layer.Register(DeviceInfo{ID: id, Type: m.Type(), Addr: id, Static: static}); err != nil {
			t.Fatal(err)
		}
	}

	for i, pos := range []geo.Point{{X: 0, Y: 0, Z: 3}, {X: 8, Y: 0, Z: 3}} {
		cam := camera.New(camID(i), geo.DefaultMount(pos, 0), clk)
		f.cams = append(f.cams, cam)
		serve(cam.ID(), cam, map[string]any{"ip": cam.ID(), "loc": pos})
	}
	for i, pos := range []geo.Point{{X: 2, Y: 1}, {X: 5, Y: 2}} {
		m := mote.New(moteID(i), pos, clk, mote.Config{Depth: i + 1, Seed: int64(i)})
		f.motes = append(f.motes, m)
		serve(m.ID(), m, map[string]any{"loc": pos, "depth": i + 1})
	}
	p := phone.New("phone-1", "+852555001", "manager", clk)
	f.phones = append(f.phones, p)
	serve(p.ID(), p, map[string]any{"number": p.Number(), "owner": "manager"})
	return f
}

func camID(i int) string  { return []string{"camera-1", "camera-2"}[i] }
func moteID(i int) string { return []string{"mote-1", "mote-2"}[i] }

func TestRegisterValidation(t *testing.T) {
	f := newFarm(t)
	if err := f.layer.Register(DeviceInfo{ID: "", Type: "camera", Addr: "x"}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := f.layer.Register(DeviceInfo{ID: "x", Type: "spaceship", Addr: "x"}); err == nil {
		t.Error("unknown device type accepted")
	}
	if err := f.layer.Register(DeviceInfo{ID: "camera-1", Type: "camera", Addr: "y"}); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestDeviceLookups(t *testing.T) {
	f := newFarm(t)
	d, ok := f.layer.Device("camera-1")
	if !ok || d.Type != "camera" {
		t.Fatalf("Device(camera-1) = %+v, %v", d, ok)
	}
	if _, ok := f.layer.Device("ghost"); ok {
		t.Error("found unregistered device")
	}
	if n, total := f.layer.CountDevices("camera", nil); n != 2 || total != 2 {
		t.Errorf("CountDevices(camera) = %d of %d, want 2 of 2", n, total)
	}
	if n, total := f.layer.CountDevices("camera", &DeviceFilter{ID: "camera-2"}); n != 1 || total != 2 {
		t.Errorf("CountDevices(camera, id=camera-2) = %d of %d, want 1 of 2", n, total)
	}
	if all := f.layer.Devices(); len(all) != 5 {
		t.Errorf("Devices() = %d entries, want 5", len(all))
	}
}

func TestDeviceInfoIsolation(t *testing.T) {
	f := newFarm(t)
	d, _ := f.layer.Device("camera-1")
	d.Static["ip"] = "tampered"
	d2, _ := f.layer.Device("camera-1")
	if d2.Static["ip"] == "tampered" {
		t.Error("registry returned a live Static map")
	}
}

// TestDeviceInfoCloneDeepStatic: clone must copy nested containers inside
// Static, not just the top-level map — a caller mutating a nested map or
// slice of one snapshot must not corrupt the registry or other snapshots.
func TestDeviceInfoCloneDeepStatic(t *testing.T) {
	f := newFarm(t)
	err := f.layer.Register(DeviceInfo{
		ID: "mote-9", Type: "sensor", Addr: "mote-9",
		Static: map[string]any{
			"calibration": map[string]any{"offset": 1.5, "axes": []any{"x", "y"}},
			"channels":    []any{1, 2, 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := f.layer.Device("mote-9")
	d.Static["calibration"].(map[string]any)["offset"] = 99.0
	d.Static["calibration"].(map[string]any)["axes"].([]any)[0] = "tampered"
	d.Static["channels"].([]any)[0] = -1

	d2, _ := f.layer.Device("mote-9")
	cal := d2.Static["calibration"].(map[string]any)
	if cal["offset"] != 1.5 {
		t.Errorf("nested map aliased: offset = %v", cal["offset"])
	}
	if axes := cal["axes"].([]any); axes[0] != "x" {
		t.Errorf("slice inside nested map aliased: axes[0] = %v", axes[0])
	}
	if ch := d2.Static["channels"].([]any); ch[0] != 1 {
		t.Errorf("top-level slice aliased: channels[0] = %v", ch[0])
	}
}

func TestProbeCamera(t *testing.T) {
	f := newFarm(t)
	res, err := f.layer.Probe(context.Background(), "camera-1")
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceType != "camera" || res.DeviceID != "camera-1" || res.Busy {
		t.Errorf("probe = %+v", res)
	}
	var st camera.Status
	if err := json.Unmarshal(res.Status, &st); err != nil {
		t.Fatal(err)
	}
	if st.Head.Zoom != 1 {
		t.Errorf("status head = %+v", st.Head)
	}
	if f.layer.Metrics().Probes.Load() != 1 {
		t.Errorf("probe count = %d", f.layer.Metrics().Probes.Load())
	}
}

func TestProbeUnknownDevice(t *testing.T) {
	f := newFarm(t)
	if _, err := f.layer.Probe(context.Background(), "nope"); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("err = %v, want ErrUnknownDevice", err)
	}
}

func TestProbeUnreachableDevice(t *testing.T) {
	f := newFarm(t)
	f.network.SetLink("mote-1", netsim.LinkConfig{Down: true})
	if _, err := f.layer.Probe(context.Background(), "mote-1"); err == nil {
		t.Fatal("probe of downed device succeeded")
	}
	if f.layer.Metrics().ProbeFailures.Load() == 0 {
		t.Error("probe failure not counted")
	}
}

// TestProbeTimeoutOnBlackhole is the paper's §4 scenario: an unresponsive
// device must be broken out of by the system-provided TIMEOUT.
func TestProbeTimeoutOnBlackhole(t *testing.T) {
	f := newFarm(t)
	f.layer.SetTimeout("sensor", 3*time.Second) // 3 virtual s = 3ms wall
	f.network.SetLink("mote-2", netsim.LinkConfig{Blackhole: true})
	start := time.Now()
	_, err := f.layer.Probe(context.Background(), "mote-2")
	if err == nil {
		t.Fatal("probe of blackholed device succeeded")
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("probe took %v wall time; TIMEOUT did not break it", wall)
	}
}

func TestReadAttrSensoryAndStatic(t *testing.T) {
	f := newFarm(t)
	f.motes[0].Stimulate("x", 900, time.Hour)
	v, err := f.layer.ReadAttr(context.Background(), "mote-1", "accel_x")
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) < 500 {
		t.Errorf("accel_x = %v, want > 500", v)
	}
	// depth is non-sensory but the device answers it too.
	d, err := f.layer.ReadAttr(context.Background(), "mote-1", "depth")
	if err != nil {
		t.Fatal(err)
	}
	if d.(float64) != 1 {
		t.Errorf("depth = %v", d)
	}
}

func TestExecActionOnPhone(t *testing.T) {
	f := newFarm(t)
	// send_sms takes 1.5 virtual seconds; the default 2-second TIMEOUT
	// would leave only 5 ms of wall time at the farm's 100x scale.
	f.layer.SetTimeout("phone", 30*time.Second)
	res, err := f.layer.Exec(context.Background(), "phone-1", "send_sms", &phone.SMSArgs{Text: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(res, &m); err != nil {
		t.Fatal(err)
	}
	if m["delivered"] != 1.0 {
		t.Errorf("result = %v", m)
	}
	if got := f.phones[0].Inbox(); len(got) != 1 || got[0].Text != "hi" {
		t.Errorf("inbox = %+v", got)
	}
}

func TestExecErrorSurfaced(t *testing.T) {
	f := newFarm(t)
	f.phones[0].SetCoverage(false)
	if _, err := f.layer.Exec(context.Background(), "phone-1", "send_sms", nil); err == nil {
		t.Fatal("exec on out-of-coverage phone succeeded")
	}
	if f.layer.Metrics().ExecFailures.Load() == 0 {
		t.Error("exec failure not counted")
	}
}

func TestSessionReuse(t *testing.T) {
	f := newFarm(t)
	s, err := f.layer.Connect(context.Background(), "camera-1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Device().ID != "camera-1" {
		t.Errorf("session device = %v", s.Device().ID)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Probe(context.Background()); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if _, err := s.Read(context.Background(), "pan"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(context.Background(), "store", nil); err != nil {
		t.Fatal(err)
	}
}

func TestScanMoteTable(t *testing.T) {
	f := newFarm(t)
	f.motes[1].Stimulate("x", 700, time.Hour)
	tuples, report, err := f.layer.Scan(context.Background(), "sensor", []string{"loc", "accel_x"})
	if err != nil {
		t.Fatal(err)
	}
	if report.Scanned != 2 || report.Skipped != 0 {
		t.Fatalf("report = %+v", report)
	}
	if len(tuples) != 2 {
		t.Fatalf("got %d tuples", len(tuples))
	}
	if tuples[0]["id"] != "mote-1" || tuples[1]["id"] != "mote-2" {
		t.Errorf("tuple order: %v, %v", tuples[0]["id"], tuples[1]["id"])
	}
	if tuples[1]["accel_x"].(float64) < 500 {
		t.Errorf("mote-2 accel_x = %v", tuples[1]["accel_x"])
	}
	if tuples[0]["loc"] == nil {
		t.Error("static loc missing from tuple")
	}
}

// TestScanBatchFilter: a filtered scan acquires only the devices the
// filter admits — an id resolves by registry lookup and only for its own
// type — and reads nothing from the rest.
func TestScanBatchFilter(t *testing.T) {
	f := newFarm(t)
	ctx := context.Background()
	deep := func(d *DeviceInfo) bool { return d.Static["depth"] == 2 }
	for _, tt := range []struct {
		name   string
		filter *DeviceFilter
		want   []string
	}{
		{"nil", nil, []string{"mote-1", "mote-2"}},
		{"id", &DeviceFilter{ID: "mote-2"}, []string{"mote-2"}},
		{"unknown id", &DeviceFilter{ID: "ghost"}, nil},
		{"id of other type", &DeviceFilter{ID: "camera-1"}, nil},
		{"keep", &DeviceFilter{Keep: deep}, []string{"mote-2"}},
		{"id rejected by keep", &DeviceFilter{ID: "mote-1", Keep: deep}, nil},
	} {
		t.Run(tt.name, func(t *testing.T) {
			before := f.layer.Metrics().Reads.Load()
			b, report, err := f.layer.ScanBatch(ctx, "sensor", []string{"accel_x"}, tt.filter)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Release()
			var got []string
			for i := 0; i < b.Len(); i++ {
				id, _ := b.ColByName("id").Str(i)
				got = append(got, id)
			}
			if !reflect.DeepEqual(got, tt.want) || report.Scanned != len(tt.want) {
				t.Errorf("scanned %v (report %+v), want %v", got, report, tt.want)
			}
			if reads := f.layer.Metrics().Reads.Load() - before; reads != int64(len(tt.want)) {
				t.Errorf("reads = %d, want %d", reads, len(tt.want))
			}
		})
	}
}

func TestScanSkipsUnreachableDevices(t *testing.T) {
	f := newFarm(t)
	f.network.SetLink("mote-1", netsim.LinkConfig{Down: true})
	tuples, report, err := f.layer.Scan(context.Background(), "sensor", []string{"accel_x"})
	if err != nil {
		t.Fatal(err)
	}
	if report.Scanned != 1 || report.Skipped != 1 {
		t.Fatalf("report = %+v", report)
	}
	if len(tuples) != 1 || tuples[0]["id"] != "mote-2" {
		t.Fatalf("tuples = %v", tuples)
	}
}

func TestScanStaticOnlyNeedsNoConnection(t *testing.T) {
	f := newFarm(t)
	// All devices down: a static-only scan still answers from the registry.
	for _, id := range []string{"camera-1", "camera-2"} {
		f.network.SetLink(id, netsim.LinkConfig{Down: true})
	}
	tuples, report, err := f.layer.Scan(context.Background(), "camera", []string{"ip", "loc"})
	if err != nil {
		t.Fatal(err)
	}
	if report.Scanned != 2 || len(tuples) != 2 {
		t.Fatalf("static scan: %+v, %d tuples", report, len(tuples))
	}
}

func TestScanUnknownAttr(t *testing.T) {
	f := newFarm(t)
	if _, _, err := f.layer.Scan(context.Background(), "sensor", []string{"gps"}); err == nil {
		t.Error("scan with unknown attribute accepted")
	}
}

func TestScanUnknownType(t *testing.T) {
	f := newFarm(t)
	if _, _, err := f.layer.Scan(context.Background(), "drone", nil); err == nil {
		t.Error("scan of unknown device type accepted")
	}
}

func TestScanAllAttrsDefault(t *testing.T) {
	f := newFarm(t)
	tuples, _, err := f.layer.Scan(context.Background(), "phone", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("tuples = %v", tuples)
	}
	for _, attr := range []string{"number", "owner", "battery", "in_coverage", "inbox_count"} {
		if _, ok := tuples[0][attr]; !ok {
			t.Errorf("attribute %q missing from full scan", attr)
		}
	}
}

func TestRemoveDevice(t *testing.T) {
	f := newFarm(t)
	f.layer.Remove("mote-1")
	if _, ok := f.layer.Device("mote-1"); ok {
		t.Error("device still present after Remove")
	}
	tuples, _, err := f.layer.Scan(context.Background(), "sensor", []string{"accel_x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Errorf("scan after remove = %d tuples", len(tuples))
	}
}

func TestTimeoutDefaults(t *testing.T) {
	f := newFarm(t)
	if f.layer.Timeout("camera") != DefaultTimeout {
		t.Errorf("default timeout = %v", f.layer.Timeout("camera"))
	}
	f.layer.SetTimeout("camera", 5*time.Second)
	if f.layer.Timeout("camera") != 5*time.Second {
		t.Errorf("timeout after set = %v", f.layer.Timeout("camera"))
	}
}

func TestProbeRTTPositive(t *testing.T) {
	f := newFarm(t)
	f.network.SetLink("camera-1", netsim.LinkConfig{Latency: 50 * time.Millisecond})
	res, err := f.layer.Probe(context.Background(), "camera-1")
	if err != nil {
		t.Fatal(err)
	}
	if res.RTT <= 0 {
		t.Errorf("RTT = %v, want > 0 with 50ms link latency", res.RTT)
	}
}
