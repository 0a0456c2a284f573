package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Sizing of the three workloads. The rates come from the calibration run
// recorded in calibration.json (see README.md, "Sizing").
const (
	// stmt_read: two shards, 64 motes pinned round-robin.
	stmtShards  = 2
	stmtMotes   = 64
	stmtClients = 2 // at most nproc client connections
	// stmtRate is the open-loop offered rate, under a third of the
	// calibrated closed-loop peak: at half the peak, queueing amplified
	// the host's noise past the latency bounds.
	stmtRate = 150.0
	// stmtWindow is each connection's pipelining depth in the closed-loop
	// phase that measures peak_ops_per_s.
	stmtWindow = 4

	// event_scan: one engine, 200 motes at 10x, 32 band CQs plus churn.
	scanMotes = 200
	scanScale = 10.0
	scanBands = 32
	// scanRate is the stimulus arrival rate; scanBandGap keeps two stimuli
	// of one band out of the same scan, scanMoteGap keeps a mote's blink
	// from overlapping its next stimulus.
	scanRate     = 70.0
	scanBandGap  = 250 * time.Millisecond
	scanMoteGap  = time.Second
	scanDeadline = 2 * time.Second

	// event_photo: one journaled engine, 4 cameras and 20 motes at 25x.
	// At 25x an epoch lasts 80 ms of wall time, so a host stall must
	// outlast that before a scan overruns its tick or the CQ falls two
	// batches behind and stimuli are lost; at 100x (20 ms) stalls did so
	// in two of five 30 s runs. photoRate keeps the cameras about a quarter
	// busy; a mote is reused only 2.5 epochs later.
	photoCameras  = 4
	photoMotes    = 20
	photoScale    = 25.0
	photoRate     = 50.0
	photoMoteGap  = 200 * time.Millisecond
	photoMag      = 900.0
	photoDeadline = 2 * time.Second
)

// bandLo returns the lower edge of accel_x band b; bands are 40 mg wide,
// well clear of the motes' ±5 mg read noise around the band centre and of
// the 0 mg resting value. Band scanBands is the churn band no stimulus
// uses.
func bandLo(b int) float64 { return 100 + 40*float64(b) }
func bandHi(b int) float64 { return bandLo(b) + 40 }

type stmtKind uint8

const (
	stmtPinned stmtKind = iota
	stmtBroadcast
	stmtShowQueries
	stmtMetrics
)

var stmtKindNames = [...]string{"pinned", "broadcast", "show", "metrics"}

// stmtOp is one client statement: its due time from the start of the
// measured window (open loop only) and what it asks.
type stmtOp struct {
	at   time.Duration
	kind stmtKind
	mote int
}

// stimulus is one physical event: mote mote reads mag on accel_x from
// its due time until a scan samples it.
type stimulus struct {
	at   time.Duration
	mote int
	band int
	mag  float64
}

// schedule is every input of one run, generated from the seed before the
// run starts. The program under test sees only these inputs.
type schedule struct {
	workload string
	seed     int64
	window   time.Duration
	// warm are unmeasured statements that open every pooled session.
	warm []stmtOp
	// stmts is the open-loop statement stream; closed the closed-loop
	// statement sequence.
	stmts  []stmtOp
	closed []stmtOp
	// stimuli are the event workloads' physical events; churn the due
	// times of event_scan's CREATE AQ/DROP AQ pairs.
	stimuli []stimulus
	churn   []time.Duration
}

// closedLoopWindow is how long stmt_read's closed-loop phase runs.
func closedLoopWindow(window time.Duration) time.Duration {
	return max(2*time.Second, window/4)
}

// generate builds the whole schedule of one run.
func generate(workload string, seed int64, window time.Duration) (*schedule, error) {
	s := &schedule{workload: workload, seed: seed, window: window}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "stmt_read":
		s.warm = stmtMix(rng, 24)
		// The warm-up opens every mote session on both shards.
		s.warm[0].kind, s.warm[1].kind = stmtBroadcast, stmtBroadcast
		for _, at := range poisson(rng, stmtRate, window) {
			op := stmtMix(rng, 1)[0]
			op.at = at
			s.stmts = append(s.stmts, op)
		}
		// Enough closed-loop statements for 2000/s, several times the
		// calibrated peak; the phase stops on time, not on exhaustion.
		s.closed = stmtMix(rng, int(2000*closedLoopWindow(window).Seconds()))
	case "event_scan":
		s.stimuli = stimuli(rng, poisson(rng, scanRate, window), scanMotes, scanBands, scanMoteGap, scanBandGap,
			func(band int) float64 { return (bandLo(band) + bandHi(band)) / 2 })
		for t := 500 * time.Millisecond; t < window; t += time.Second {
			s.churn = append(s.churn, t)
		}
	case "event_photo":
		s.stimuli = stimuli(rng, poisson(rng, photoRate, window), photoMotes, 0, photoMoteGap, 0,
			func(int) float64 { return photoMag })
	default:
		return nil, fmt.Errorf("unknown workload %q (want stmt_read, event_scan or event_photo)", workload)
	}
	return s, nil
}

// poisson returns the arrival times of a Poisson process of the given
// rate over [0, window), conditioned on its expected count: that many
// uniform times, sorted. Every seed then offers the same number of ops,
// so per-op costs do not move with the seed's arrival count.
func poisson(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*window.Seconds()))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stmtMix draws n statements: about 70% id-pinned SELECTs, 25% broadcast
// SELECTs and 5% SHOW QUERIES / \metrics.
func stmtMix(rng *rand.Rand, n int) []stmtOp {
	out := make([]stmtOp, n)
	for i := range out {
		u := rng.Float64()
		switch {
		case u < 0.70:
			out[i] = stmtOp{kind: stmtPinned, mote: rng.Intn(stmtMotes)}
		case u < 0.95:
			out[i] = stmtOp{kind: stmtBroadcast}
		case u < 0.975:
			out[i] = stmtOp{kind: stmtShowQueries}
		default:
			out[i] = stmtOp{kind: stmtMetrics}
		}
	}
	return out
}

// stimuli assigns each arrival a free mote and, with bands > 0, a free
// band: a mote is free moteGap after its last stimulus, a band bandGap
// after its last. An arrival that finds no free mote or band is dropped,
// so the schedule never asks for two events the workload's answer check
// could not tell apart.
func stimuli(rng *rand.Rand, arrivals []time.Duration, motes, bands int, moteGap, bandGap time.Duration, mag func(band int) float64) []stimulus {
	moteFree := make([]time.Duration, motes)
	bandFree := make([]time.Duration, max(bands, 1))
	var out []stimulus
	for _, at := range arrivals {
		m := pickFree(rng, moteFree, at)
		if m < 0 {
			continue
		}
		b := 0
		if bands > 0 {
			if b = pickFree(rng, bandFree, at); b < 0 {
				continue
			}
			bandFree[b] = at + bandGap
		}
		moteFree[m] = at + moteGap
		out = append(out, stimulus{at: at, mote: m, band: b, mag: mag(b)})
	}
	return out
}

// pickFree returns a uniformly chosen index whose free time is at or
// before at, or -1.
func pickFree(rng *rand.Rand, free []time.Duration, at time.Duration) int {
	var idle []int
	for i, f := range free {
		if f <= at {
			idle = append(idle, i)
		}
	}
	if len(idle) == 0 {
		return -1
	}
	return idle[rng.Intn(len(idle))]
}

// head returns the part of the schedule due before d, as a schedule
// whose window is d.
func (s *schedule) head(d time.Duration) *schedule {
	h := *s
	h.window, h.stmts, h.stimuli, h.churn = d, nil, nil, nil
	for _, op := range s.stmts {
		if op.at < d {
			h.stmts = append(h.stmts, op)
		}
	}
	for _, st := range s.stimuli {
		if st.at < d {
			h.stimuli = append(h.stimuli, st)
		}
	}
	for _, at := range s.churn {
		if at < d {
			h.churn = append(h.churn, at)
		}
	}
	return &h
}

// encode renders the schedule as text, one input per line; the self-test
// compares encodings byte for byte.
func (s *schedule) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "workload %s seed %d window %s\n", s.workload, s.seed, s.window)
	for _, op := range s.warm {
		fmt.Fprintf(&b, "warm %s %d\n", stmtKindNames[op.kind], op.mote)
	}
	for _, op := range s.stmts {
		fmt.Fprintf(&b, "stmt %d %s %d\n", op.at, stmtKindNames[op.kind], op.mote)
	}
	for _, op := range s.closed {
		fmt.Fprintf(&b, "closed %s %d\n", stmtKindNames[op.kind], op.mote)
	}
	for _, st := range s.stimuli {
		fmt.Fprintf(&b, "stimulus %d mote %d band %d mag %g\n", st.at, st.mote, st.band, st.mag)
	}
	for _, at := range s.churn {
		fmt.Fprintf(&b, "churn %d\n", at)
	}
	return b.Bytes()
}
