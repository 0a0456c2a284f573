package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// calibrationWindow is the measured window of each calibration run.
const calibrationWindow = 10 * time.Second

// runCalibrate measures the numbers the workloads are sized from: the
// closed-loop statement peak of stmt_read, the scan time per epoch of
// event_scan and the camera busy share of event_photo, each with the
// rate or size the benchmark currently uses. It prints one JSON object;
// README.md explains how calibration.json was produced from it.
func runCalibrate(seed int64, tmp string) int {
	ctx := context.Background()
	out := map[string]map[string]float64{}
	run := func(workload string, traced, closedLoop bool) (*phase, error) {
		sch, err := generate(workload, seed, calibrationWindow)
		if err != nil {
			return nil, err
		}
		sys, err := builders[workload](ctx, buildConfig{seed: seed, traced: traced, tmp: tmp})
		if err != nil {
			return nil, err
		}
		defer sys.close()
		return sys.run(sch, closedLoop), nil
	}
	failPct := func(p *phase) float64 { return 100 * ratio(float64(p.failed()), float64(p.attempted)) }

	// The closed-loop peak moves from run to run; take the median of three.
	var p *phase
	var peaks []float64
	for i := 0; i < 3; i++ {
		var err error
		if p, err = run("stmt_read", false, true); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		peaks = append(peaks, p.peak)
	}
	out["stmt_read"] = map[string]float64{
		"closed_loop_peak_ops_per_s": median(peaks),
		"open_loop_rate_per_s":       stmtRate,
		"open_loop_p50_ms":           quantile(p.lat, 0.5),
		"fail_pct":                   failPct(p),
	}

	p, err := run("event_scan", true, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	epoch := ms(scanSpec.epochWall())
	out["event_scan"] = map[string]float64{
		"motes":               scanMotes,
		"epoch_ms":            epoch,
		"scan_ms_p50":         p.layer["comm.scan_ms_p50"],
		"scan_share_of_epoch": p.layer["comm.scan_ms_p50"] / epoch,
		"epoch_lag_pct":       p.layer["scanshare.epoch_lag_pct"],
		"stimulus_rate_per_s": scanRate,
		"fail_pct":            failPct(p),
	}

	p, err = run("event_photo", true, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	out["event_photo"] = map[string]float64{
		"cameras":             photoCameras,
		"camera_busy_pct":     p.layer["device.busy_pct"],
		"stimulus_rate_per_s": photoRate,
		"service_ms_p50":      p.layer["device.service_ms_p50"],
		"fail_pct":            failPct(p),
	}
	b, err := json.MarshalIndent(map[string]any{"seed": seed, "window_s": calibrationWindow.Seconds(), "workloads": out}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
