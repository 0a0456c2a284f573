// Command aortabench regenerates the paper's evaluation (§6): every
// figure, the prose results, and the supporting validations, printed as
// paper-style tables. See EXPERIMENTS.md for the paper-vs-measured
// record.
//
//	aortabench -exp all
//	aortabench -exp fig4 -runs 10
//	aortabench -exp sync -minutes 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aorta/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig4|fig5|fig6|ratio|costmodel|optimal|ablation|scale|latency|sync|failover|churn|qscale|crashrec|frontdoor|chaos|cluster|selfheal|all")
		runs    = flag.Int("runs", 10, "independent runs per data point (paper: 10)")
		seed    = flag.Int64("seed", 2005, "random seed")
		cameras = flag.Int("cameras", 10, "camera count for the scheduling studies (paper: 10)")
		minutes = flag.Int("minutes", 10, "virtual minutes for the sync study (paper ran continuously)")
		clients = flag.Int("clients", 0, "concurrent clients for the frontdoor study (0 = default 120)")
	)
	flag.Parse()
	if err := run(*exp, *runs, *seed, *cameras, *minutes, *clients); err != nil {
		fmt.Fprintln(os.Stderr, "aortabench:", err)
		os.Exit(1)
	}
}

func run(exp string, runs int, seed int64, cameras, minutes, clients int) error {
	cfg := experiments.DefaultConfig()
	cfg.Runs = runs
	cfg.Seed = seed
	cfg.Cameras = cameras

	wanted := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	all := wanted["all"]
	out := os.Stdout
	ran := false

	if all || wanted["fig4"] {
		ran = true
		points, err := experiments.Fig4(cfg)
		if err != nil {
			return err
		}
		experiments.PrintFig4(out, points)
		fmt.Fprintln(out)
	}
	if all || wanted["fig5"] {
		ran = true
		rows, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		experiments.PrintFig5(out, rows)
		fmt.Fprintln(out)
	}
	if all || wanted["fig6"] {
		ran = true
		points, err := experiments.Fig6(cfg)
		if err != nil {
			return err
		}
		experiments.PrintFig6(out, points)
		fmt.Fprintln(out)
	}
	if all || wanted["ratio"] {
		ran = true
		points, err := experiments.Ratio(cfg)
		if err != nil {
			return err
		}
		experiments.PrintRatio(out, points)
		fmt.Fprintln(out)
	}
	if all || wanted["costmodel"] {
		ran = true
		s, err := experiments.CostModel(20*runs, seed)
		if err != nil {
			return err
		}
		experiments.PrintCostModel(out, s)
		fmt.Fprintln(out)
	}
	if all || wanted["optimal"] {
		ran = true
		rows, err := experiments.OptimalGap(cfg)
		if err != nil {
			return err
		}
		experiments.PrintOptimalGap(out, rows)
		fmt.Fprintln(out)
	}
	if all || wanted["ablation"] {
		ran = true
		rows, err := experiments.AblationSequenceDependence(cfg)
		if err != nil {
			return err
		}
		experiments.PrintAblation(out, rows)
		fmt.Fprintln(out)
	}
	if all || wanted["scale"] {
		ran = true
		points, err := experiments.Scalability(cfg)
		if err != nil {
			return err
		}
		experiments.PrintScalability(out, points)
		fmt.Fprintln(out)
	}
	if all || wanted["latency"] {
		ran = true
		lcfg := experiments.LatencyConfig{Seed: seed}
		rows, err := experiments.Latency(lcfg)
		if err != nil {
			return err
		}
		experiments.PrintLatency(out, lcfg, rows)
		fmt.Fprintln(out)
	}
	if all || wanted["sync"] {
		ran = true
		scfg := experiments.DefaultSyncConfig()
		scfg.Minutes = minutes
		scfg.Seed = seed
		with, without, err := experiments.SyncStudy(scfg)
		if err != nil {
			return err
		}
		experiments.PrintSyncStudy(out, with, without)
		fmt.Fprintln(out)
	}
	if all || wanted["failover"] {
		ran = true
		fcfg := experiments.DefaultFailoverConfig()
		fcfg.Minutes = minutes * 2 // needs more samples than the sync study
		fcfg.Seed = seed
		without, with, err := experiments.FailoverStudy(fcfg)
		if err != nil {
			return err
		}
		experiments.PrintFailoverStudy(out, without, with)
		fmt.Fprintln(out)
	}
	if all || wanted["churn"] {
		ran = true
		ccfg := experiments.DefaultChurnConfig()
		ccfg.Minutes = minutes * 2 // each outage must span several epochs
		ccfg.Seed = seed
		baseline, withDetector, err := experiments.ChurnStudy(ccfg)
		if err != nil {
			return err
		}
		experiments.PrintChurnStudy(out, baseline, withDetector)
		fmt.Fprintln(out)
		if withDetector.SchedulingViolations > 0 || withDetector.Outcomes != withDetector.Requests {
			return fmt.Errorf("churn: detector run has %d post-detection scheduling violation(s) and %d/%d outcomes",
				withDetector.SchedulingViolations, withDetector.Outcomes, withDetector.Requests)
		}
	}
	if all || wanted["qscale"] {
		ran = true
		qcfg := experiments.DefaultQScaleConfig()
		qcfg.Seed = seed
		points, err := experiments.QScaleStudy(qcfg)
		if err != nil {
			return err
		}
		experiments.PrintQScaleStudy(out, qcfg, points)
		fmt.Fprintln(out)
	}
	if all || wanted["crashrec"] {
		ran = true
		rcfg := experiments.DefaultCrashRecConfig()
		rcfg.Seed = seed
		res, err := experiments.CrashRecStudy(rcfg)
		if err != nil {
			return err
		}
		experiments.PrintCrashRecStudy(out, rcfg, res)
		fmt.Fprintln(out)
	}
	if all || wanted["frontdoor"] {
		ran = true
		fcfg := experiments.DefaultFrontdoorConfig()
		fcfg.Seed = seed
		if clients > 0 {
			fcfg.Clients = clients
		}
		serial, pipelined, err := experiments.FrontdoorStudy(fcfg)
		if err != nil {
			return err
		}
		experiments.PrintFrontdoorStudy(out, fcfg, serial, pipelined)
		fmt.Fprintln(out)
	}
	if all || wanted["chaos"] {
		ran = true
		hcfg := experiments.DefaultChaosConfig()
		hcfg.Seed = seed
		res, err := experiments.ChaosStudy(hcfg)
		if err != nil {
			return err
		}
		experiments.PrintChaosStudy(out, hcfg, res)
		fmt.Fprintln(out)
		if len(res.Violations) > 0 {
			return fmt.Errorf("chaos: %d invariant violation(s)", len(res.Violations))
		}
	}
	if all || wanted["cluster"] {
		ran = true
		ucfg := experiments.DefaultClusterConfig()
		ucfg.Seed = seed
		res, err := experiments.ClusterStudy(ucfg)
		if err != nil {
			return err
		}
		experiments.PrintClusterStudy(out, ucfg, res)
		fmt.Fprintln(out)
		if len(res.Violations) > 0 {
			return fmt.Errorf("cluster: %d invariant violation(s)", len(res.Violations))
		}
	}
	if all || wanted["selfheal"] {
		ran = true
		scfg := experiments.DefaultSelfhealConfig()
		scfg.Seed = seed
		res, err := experiments.SelfhealStudy(scfg)
		if err != nil {
			return err
		}
		experiments.PrintSelfhealStudy(out, scfg, res)
		fmt.Fprintln(out)
		if len(res.Violations) > 0 {
			return fmt.Errorf("selfheal: %d invariant violation(s)", len(res.Violations))
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want fig4|fig5|fig6|ratio|costmodel|optimal|sync|failover|churn|qscale|crashrec|frontdoor|chaos|cluster|selfheal|all)", exp)
	}
	return nil
}
