package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

var workloadNames = []string{"stmt_read", "event_scan", "event_photo"}

// The same seed must reproduce a run's inputs byte for byte, and another
// seed must change them.
func TestScheduleReproducible(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7, 15*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, 15*time.Second)
		c, _ := generate(w, 8, 15*time.Second)
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: seed 7 produced two different schedules", w)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 7 and 8 produced the same schedule", w)
		}
	}
}

// Stimuli must keep the spacing the answer checks rely on: one live
// stimulus per mote, and at most one per band within a scan.
func TestStimuliKeepGaps(t *testing.T) {
	for _, tc := range []struct {
		workload         string
		moteGap, bandGap time.Duration
		want             int
	}{
		{"event_scan", scanMoteGap, scanBandGap, int(scanRate * 15 * 0.9)},
		{"event_photo", photoMoteGap, 0, int(photoRate * 15 * 0.6)},
	} {
		s, err := generate(tc.workload, 3, 15*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.stimuli) < tc.want {
			t.Errorf("%s: %d stimuli, want at least %d", tc.workload, len(s.stimuli), tc.want)
		}
		lastMote, lastBand := map[int]time.Duration{}, map[int]time.Duration{}
		for _, st := range s.stimuli {
			if at, ok := lastMote[st.mote]; ok && st.at-at < tc.moteGap {
				t.Fatalf("%s: mote %d stimulated %v apart", tc.workload, st.mote, st.at-at)
			}
			if at, ok := lastBand[st.band]; ok && tc.bandGap > 0 && st.at-at < tc.bandGap {
				t.Fatalf("%s: band %d stimulated %v apart", tc.workload, st.band, st.at-at)
			}
			lastMote[st.mote], lastBand[st.band] = st.at, st.at
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this
// program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		if _, ok := builders[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no builder", w.Name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, m, w)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

// A traced run's untraced reference replays the schedule's head: every
// input due before the cut, nothing after it.
func TestHeadKeepsEarlyInputs(t *testing.T) {
	for _, w := range workloadNames {
		s, _ := generate(w, 5, 15*time.Second)
		h := s.head(5 * time.Second)
		n := 0
		for _, op := range s.stmts {
			if op.at < 5*time.Second {
				n++
			}
		}
		for _, st := range s.stimuli {
			if st.at < 5*time.Second {
				n++
			}
		}
		for _, at := range s.churn {
			if at < 5*time.Second {
				n++
			}
		}
		if got := len(h.stmts) + len(h.stimuli) + len(h.churn); got != n || n == 0 || h.window != 5*time.Second {
			t.Errorf("%s: head kept %d inputs over %v, want %d over 5s", w, got, h.window, n)
		}
	}
}
