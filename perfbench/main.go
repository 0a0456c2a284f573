// Command perfbench is the repository benchmark: it runs one named
// workload from a seed against the real system in one process, checks
// every answer, and prints each metric with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// nothing interposed. With -trace 1 the run repeats the workload with
// tracing wrappers around the calls into each layer and reports the
// per-layer metrics. See README.md for the workloads, the stage diagrams
// and which end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. moves records which end-to-end
// metric, on which workload, a per-layer metric should move.
type metricDef struct {
	name, unit, better, moves string
}

var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower", ""},
	{"p99_ms", "ms", "lower", ""},
	{"cpu_ms_per_op", "ms", "lower", ""},
	{"heap_peak_mb", "MB", "lower", ""},
	{"setup_s", "s", "lower", ""},
}

var perLayer = []metricDef{
	{"frontdoor.wait_ms_p50", "ms", "lower", "p50_ms on stmt_read"},
	{"frontdoor.wait_ms_p99", "ms", "lower", "p99_ms on stmt_read"},
	{"frontdoor.reply_ms_p50", "ms", "lower", "p50_ms on stmt_read"},
	{"frontdoor.shed_pct", "%", "lower", "fail_pct on stmt_read"},
	{"cluster.route_ms_p50", "ms", "lower", "p50_ms on stmt_read"},
	{"cluster.route_ms_p99", "ms", "lower", "p99_ms on stmt_read"},
	{"cluster.shards_per_op", "count", "lower", "cpu_ms_per_op on stmt_read"},
	{"cluster.bytes_per_op", "B", "lower", "cpu_ms_per_op on stmt_read"},
	{"cluster.skew_ms_p99", "ms", "lower", "p99_ms on stmt_read"},
	{"core.exec_ms_p50", "ms", "lower", "p50_ms on stmt_read"},
	{"core.exec_ms_p99", "ms", "lower", "p99_ms on stmt_read"},
	{"core.rows_per_read", "count", "higher", "cpu_ms_per_op on stmt_read"},
	{"scanshare.sense_ms_p50", "ms", "lower", "p50_ms on event_scan"},
	{"scanshare.sense_ms_p99", "ms", "lower", "p99_ms on event_scan"},
	{"scanshare.epoch_lag_pct", "%", "lower", "p50_ms, fail_pct on event_scan"},
	{"scanshare.dropped_pct", "%", "lower", "fail_pct on event_scan"},
	{"scanshare.coalesced_pct", "%", "higher", "cpu_ms_per_op on event_scan"},
	{"core.detect_ms_p50", "ms", "lower", "p50_ms on event_photo and event_scan"},
	{"core.detect_ms_p99", "ms", "lower", "p99_ms on event_photo and event_scan"},
	{"core.record_ms_p50", "ms", "lower", "p99_ms on event_photo"},
	{"core.record_ms_p99", "ms", "lower", "p99_ms on event_photo"},
	{"core.eval_pct", "%", "higher", "fail_pct on event_scan"},
	{"core.churn_ms_p99", "ms", "lower", "p99_ms on event_scan"},
	{"device.service_ms_p50", "ms", "lower", "p50_ms on event_photo"},
	{"device.service_ms_p99", "ms", "lower", "p50_ms on event_photo"},
	{"device.busy_pct", "%", "lower", "p99_ms on event_photo"},
	{"comm.reads_per_op", "count", "lower", "cpu_ms_per_op on stmt_read and event_scan"},
	{"comm.bytes_per_read", "B", "lower", "cpu_ms_per_op on event_scan"},
	{"comm.scan_ms_p50", "ms", "lower", "p50_ms on event_scan and stmt_read"},
	{"comm.scan_ms_p99", "ms", "lower", "p50_ms on event_scan and stmt_read"},
	{"comm.pool_hit_pct", "%", "higher", "p99_ms on all workloads"},
	{"comm.dials_per_kop", "count", "lower", "p99_ms on all workloads"},
	{"comm.fail_per_kop", "count", "lower", "fail_pct on all workloads"},
	{"match.hit_pct", "%", "higher", "cpu_ms_per_op on event_scan"},
	{"match.residual_pct", "%", "lower", "cpu_ms_per_op on event_scan"},
	{"sched.attempts_per_req", "count", "lower", "fail_pct on event_photo"},
	{"sched.retries_per_kop", "count", "lower", "p99_ms on event_photo"},
	{"devsync.contended_pct", "%", "lower", "p99_ms on event_photo"},
	{"devsync.wait_ms_per_acq", "ms", "lower", "p99_ms on event_photo"},
	{"wal.appends_per_op", "count", "lower", "cpu_ms_per_op, p99_ms on event_photo"},
	{"wal.syncs_per_op", "count", "lower", "cpu_ms_per_op, p99_ms on event_photo"},
	{"wal.bytes_per_op", "B", "lower", "cpu_ms_per_op, p99_ms on event_photo"},
	{"runtime.alloc_kb_per_op", "KB", "lower", "cpu_ms_per_op on all workloads"},
	{"runtime.gc_cpu_pct", "%", "lower", "p99_ms on all workloads"},
	{"runtime.goroutines_peak", "count", "lower", "heap_peak_mb on all workloads"},
	{"fail_pct", "%", "lower", "share of attempted ops that failed (all workloads)"},
	{"peak_ops_per_s", "1/s", "higher", "closed-loop statement capacity (stmt_read)"},
	{"loadgen.late_ms_p99", "ms", "lower", "validity: generator lateness"},
	{"trace.overhead_pct", "%", "lower", "validity: traced vs untraced cpu_ms_per_op"},
	{"trace.unattributed_pct", "%", "lower", "validity: e2e time no stage accounts for"},
}

// Validity bounds. A run whose generator ran later than lateBoundMs at
// the 99th percentile is invalid; a traced run whose stage sums leave
// more than unattributedTolPct of end-to-end time unaccounted fails.
const (
	lateBoundMs        = 20.0
	unattributedTolPct = 5.0
	// setupRuns is how many times a run sets the system up; setup_s is
	// their median.
	setupRuns = 7
)

// buildConfig parameterises one system build.
type buildConfig struct {
	seed   int64
	traced bool
	// tmp holds the run's scratch files (the event_photo journal).
	tmp string
}

// system is one workload's running stack.
type system interface {
	// run drives the schedule through the system and returns what it
	// measured; closedLoop adds stmt_read's closed-loop peak phase.
	run(s *schedule, closedLoop bool) *phase
	close()
}

var builders = map[string]func(context.Context, buildConfig) (system, error){
	"stmt_read":   buildStmt,
	"event_scan":  func(ctx context.Context, c buildConfig) (system, error) { return buildEvent(ctx, c, scanSpec) },
	"event_photo": func(ctx context.Context, c buildConfig) (system, error) { return buildEvent(ctx, c, photoSpec) },
}

// phase is one pass of the schedule through one system.
type phase struct {
	attempted int
	fails     map[string]int // failure class → count
	wrong     []string
	lat       []float64 // end-to-end ms of completed ops
	late      []float64 // generator lateness, ms
	completed int
	win       windowStats
	// layer holds the workload's per-layer metrics (traced runs).
	layer map[string]float64
	// e2eMs and unattributedMs reconcile stage sums with end-to-end time.
	e2eMs, unattributedMs float64
	// peak is stmt_read's closed-loop statements/s.
	peak float64
}

func newPhase() *phase {
	return &phase{fails: map[string]int{}, layer: map[string]float64{}}
}

// Failure classes counted in fail_pct.
const (
	failError  = "error_frame"
	failShed   = "shed"
	failWrong  = "wrong_answer"
	failAction = "failed_outcome"
	failMissed = "missed_deadline"
)

func (p *phase) fail(class string) { p.fails[class]++ }

func (p *phase) wrongAnswer(format string, args ...any) {
	p.fails[failWrong]++
	if len(p.wrong) < 10 {
		p.wrong = append(p.wrong, fmt.Sprintf(format, args...))
	}
}

func (p *phase) failed() int {
	n := 0
	for _, c := range p.fails {
		n += c
	}
	return n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: stmt_read, event_scan or event_photo")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	tmp := flag.String("tmp", ".bench_build", "directory for the run's scratch files")
	calibrate := flag.Bool("calibrate", false, "measure the sizing numbers instead of running a workload")
	flag.Parse()

	if *calibrate {
		return runCalibrate(*seed, *tmp)
	}
	build, ok := builders[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload stmt_read|event_scan|event_photo -seed N -seconds S -trace 0|1")
		return 2
	}
	sched, err := generate(*workload, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	ctx := context.Background()
	cfg := buildConfig{seed: *seed, tmp: *tmp}

	var setups []float64
	var sys system
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		s, err := build(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "setup:", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			s.close()
		} else {
			sys = s
		}
	}
	// A traced run measures its untraced reference, for trace.overhead_pct
	// and peak_ops_per_s, on the schedule's first third only.
	plainSched := sched
	if *trace == 1 {
		plainSched = sched.head(sched.window / 3)
	}
	plain := sys.run(plainSched, *trace == 1 && *workload == "stmt_read")
	sys.close()
	phases := []*phase{plain}

	var traced *phase
	if *trace == 1 {
		cfg.traced = true
		tsys, err := build(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "traced setup:", err)
			return 1
		}
		traced = tsys.run(sched, false)
		tsys.close()
		phases = append(phases, traced)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed()
		for _, w := range p.wrong {
			fmt.Fprintln(os.Stderr, "wrong answer:", w)
			res.Correct = false
		}
		if late := quantile(append([]float64(nil), p.late...), 0.99); late > lateBoundMs {
			fmt.Fprintf(os.Stderr, "invalid run: generator lateness p99 %.2f ms exceeds the %.0f ms bound\n", late, lateBoundMs)
			return 3
		}
		if p.completed == 0 {
			fmt.Fprintln(os.Stderr, "invalid run: no operation completed")
			return 3
		}
	}
	for _, p := range phases {
		for class, n := range p.fails {
			if n > 0 {
				fmt.Fprintf(os.Stderr, "failures (%s): %d\n", class, n)
			}
		}
	}

	set := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("undefined metric " + name)
	}
	if traced == nil {
		set(endToEnd, "p50_ms", quantile(plain.lat, 0.50))
		set(endToEnd, "p99_ms", quantile(plain.lat, 0.99))
		set(endToEnd, "cpu_ms_per_op", ms(plain.win.cpu)/float64(plain.completed))
		set(endToEnd, "heap_peak_mb", plain.win.heapPeakMB)
		set(endToEnd, "setup_s", median(setups))
		fmt.Printf("samples = %d ops (%d attempted, %d failed)\n", len(plain.lat), res.Attempted, res.Failed)
	} else {
		for _, d := range perLayer {
			set(perLayer, d.name, traced.layer[d.name])
		}
		n := float64(traced.completed)
		set(perLayer, "fail_pct", 100*ratio(float64(traced.failed()), float64(traced.attempted)))
		set(perLayer, "peak_ops_per_s", plain.peak)
		set(perLayer, "loadgen.late_ms_p99", quantile(traced.late, 0.99))
		set(perLayer, "runtime.alloc_kb_per_op", traced.win.allocBytes/n/1024)
		set(perLayer, "runtime.gc_cpu_pct", traced.win.gcCPUPct)
		set(perLayer, "runtime.goroutines_peak", traced.win.goroutines)
		plainCPU := ms(plain.win.cpu) / float64(plain.completed)
		set(perLayer, "trace.overhead_pct", 100*(ms(traced.win.cpu)/n/plainCPU-1))
		unattributed := 100 * ratio(traced.unattributedMs, traced.e2eMs)
		set(perLayer, "trace.unattributed_pct", unattributed)
		if unattributed > unattributedTolPct {
			fmt.Fprintf(os.Stderr, "traced run failed: %.2f%% of end-to-end time is in no stage (tolerance %.0f%%)\n",
				unattributed, unattributedTolPct)
			return 4
		}
	}

	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	moves := map[string]string{}
	for _, d := range perLayer {
		moves[d.name] = d.moves
	}
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("%-26s %14.4f %-5s", name, m.Value, m.Unit)
		if mv := moves[name]; mv != "" {
			line += "  → " + mv
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}
