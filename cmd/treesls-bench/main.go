// Command treesls-bench regenerates the paper's evaluation (§7): every
// table and figure, printed as text tables, plus the Figure 7 ablation.
//
// Usage:
//
//	treesls-bench [-scale quick|full] [-only table2,fig9a,...]
//
// Experiment names: functional, table2, fig9a, fig9b, table3, fig10,
// table4, fig11, fig12, fig13, fig14, ablation, restoretime, sensitivity,
// scaling, net, repl, scrub, media, cluster, reshard.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"treesls/internal/crashfuzz"
	"treesls/internal/experiments"
	"treesls/internal/faultplane"
	"treesls/internal/mem"
	"treesls/internal/obs"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "workload scale: quick or full")
	onlyFlag := flag.String("only", "", "comma-separated experiment subset (default: all)")
	parallelWalk := flag.Bool("parallel-walk", true, "partition the checkpoint capability-tree walk across all lanes (false: serial reference walk)")
	mediaFaults := flag.Int("media-faults", 2, "media experiment: random NVM lines poisoned at each power failure")
	scrubInterval := flag.Int("scrub-interval", 1, "media experiment: scrub every N crash rounds (0 disables scrubbing)")
	obsOpts := obs.AddFlags(nil)
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}
	ob := obsOpts.Observer()
	scale.Obs = ob
	scale.Audit = obsOpts.Audit
	scale.SerialWalk = !*parallelWalk

	type experiment struct {
		name string
		run  func(experiments.Scale) (string, error)
	}
	all := []experiment{
		{"functional", func(s experiments.Scale) (string, error) { _, t, err := experiments.Functional(s); return t, err }},
		{"table2", func(s experiments.Scale) (string, error) { _, t, err := experiments.Table2(s); return t, err }},
		{"fig9a", func(s experiments.Scale) (string, error) { _, t, err := experiments.Figure9a(s); return t, err }},
		{"fig9b", func(s experiments.Scale) (string, error) { _, t, err := experiments.Figure9b(s); return t, err }},
		{"table3", func(s experiments.Scale) (string, error) { _, t, err := experiments.Table3(s); return t, err }},
		{"fig10", func(s experiments.Scale) (string, error) { _, t, err := experiments.Figure10(s); return t, err }},
		{"table4", func(s experiments.Scale) (string, error) { _, t, err := experiments.Table4(s); return t, err }},
		{"fig11", func(s experiments.Scale) (string, error) { _, t, err := experiments.Figure11(s); return t, err }},
		{"fig12", func(s experiments.Scale) (string, error) { _, t, err := experiments.Figure12(s); return t, err }},
		{"fig13", func(s experiments.Scale) (string, error) { _, t, err := experiments.Figure13(s); return t, err }},
		{"fig14", func(s experiments.Scale) (string, error) { _, t, err := experiments.Figure14(s); return t, err }},
		{"ablation", func(s experiments.Scale) (string, error) {
			_, t, err := experiments.AblationCopyMethods(s)
			return t, err
		}},
		{"restoretime", func(s experiments.Scale) (string, error) { _, t, err := experiments.RestoreTime(s); return t, err }},
		{"sensitivity", func(s experiments.Scale) (string, error) { _, t, err := experiments.SensitivityNVM(s); return t, err }},
		{"scaling", func(s experiments.Scale) (string, error) { _, t, err := experiments.WalkScaling(s); return t, err }},
		{"net", func(s experiments.Scale) (string, error) { _, t, err := experiments.NetLatency(s); return t, err }},
		{"repl", func(s experiments.Scale) (string, error) { _, t, err := experiments.ReplLag(s); return t, err }},
		{"scrub", func(s experiments.Scale) (string, error) { _, t, err := experiments.ScrubOverhead(s); return t, err }},
		{"media", func(s experiments.Scale) (string, error) {
			return mediaCampaign(s, *mediaFaults, *scrubInterval)
		}},
		{"cluster", func(s experiments.Scale) (string, error) { _, t, err := experiments.ClusterScaling(s); return t, err }},
		{"reshard", func(s experiments.Scale) (string, error) { _, t, _, err := experiments.ReshardPause(s); return t, err }},
		{"composed", composedCampaigns},
	}

	selected := all
	if *onlyFlag != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*onlyFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
		selected = selected[:0]
		for _, e := range all {
			if want[e.name] {
				selected = append(selected, e)
				delete(want, e.name)
			}
		}
		if len(want) > 0 {
			fmt.Fprintf(os.Stderr, "unknown experiments: %v\n", keys(want))
			os.Exit(2)
		}
	}

	fmt.Printf("TreeSLS reproduction — evaluation harness (scale: %s)\n", scale.Name)
	fmt.Printf("Times are SIMULATED; compare shapes against the paper, see EXPERIMENTS.md.\n\n")
	for _, e := range selected {
		start := time.Now()
		txt, err := e.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(txt)
		fmt.Printf("  [%s took %.1fs host time]\n\n", e.name, time.Since(start).Seconds())
	}

	// Many machines share one trace/registry, so the snapshot is stamped
	// with 0 rather than any single machine's clock.
	if err := obsOpts.Finish(ob, os.Stdout, 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// mediaCampaign runs the media-fault robustness campaign (the crashfuzz
// media oracle) at CLI scale and renders its counters: with checksums on,
// zero silent corruptions is the pass condition; the checksum-disabled
// baseline row shows what the machinery prevents.
func mediaCampaign(s experiments.Scale, crashFaults, scrubEvery int) (string, error) {
	seeds := []uint64{1, 2, 3}
	injections := 40
	if s.Name == "full" {
		seeds = []uint64{1, 2, 3, 4, 5, 6}
		injections = 80
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Media-fault campaign (extension; §8 'Data Reliability'): %d seeds × %d injections, crash-faults=%d, scrub every %d rounds\n",
		len(seeds), injections, crashFaults, scrubEvery)
	for _, row := range []struct {
		name     string
		disabled bool
	}{{"checksums on", false}, {"checksums OFF (baseline)", true}} {
		res, err := crashfuzz.RunMedia(faultplane.Spec{Seeds: seeds, RoundsPerSeed: injections}, crashfuzz.MediaConfig{
			Mode:               mem.ModeADR,
			CrashFaults:        crashFaults,
			CrashDuringRestore: true,
			ScrubEveryN:        scrubEvery,
			DisableChecksums:   row.disabled,
		})
		if err != nil {
			return "", fmt.Errorf("media (%s): %w", row.name, err)
		}
		fmt.Fprintf(&b, "  %-24s injections=%d crashes=%d restoreCrashes=%d verified=%d degraded=%d lost=%d commitLost=%d metaRepairs=%d scrubRepairs=%d SILENT=%d\n",
			row.name, res.Injections, res.Crashes, res.RestoreCrashes, res.PagesVerified,
			res.Degraded, res.Lost, res.CommitLost, res.MetaRepairs, res.ScrubRepairs, res.SilentCorruptions)
		if !row.disabled && res.SilentCorruptions != 0 {
			return "", fmt.Errorf("media: %d silent corruptions with checksums enabled", res.SilentCorruptions)
		}
	}
	return b.String(), nil
}

// composedCampaigns runs the three cross-domain fault-plane campaigns the
// unified engine makes possible — media rot during an online reshard,
// standby failover probing under cluster crashes, and media rot under
// hot-standby replication — and renders their gated counters. Any oracle
// conviction is a hard failure: the gated system must survive every
// composed schedule.
func composedCampaigns(s experiments.Scale) (string, error) {
	seeds := []uint64{1, 2, 3}
	if s.Name == "full" {
		seeds = []uint64{1, 2, 3, 4, 5, 6}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Composed fault-plane campaigns (extension; cross-domain): %d seeds each\n", len(seeds))

	rres, rm, err := crashfuzz.RunMediaDuringReshard(faultplane.Spec{Seeds: seeds},
		crashfuzz.ReshardConfig{Mode: mem.ModeEADR, Replicas: 2}, 14)
	if err != nil {
		return "", fmt.Errorf("media x reshard: %w", err)
	}
	fmt.Fprintf(&b, "  media x reshard      crashes=%d rot=%d replicaRepairs=%d scrubRepairs=%d back=%d fwd=%d\n",
		rres.CrashesFired, rm.RotInjected, rm.ReplicaRepairs, rm.ScrubRepairs,
		rres.RolledBack, rres.RolledForward)

	cres, cp, err := crashfuzz.RunReplUnderCluster(faultplane.Spec{Seeds: seeds, RoundsPerSeed: 24},
		crashfuzz.ClusterConfig{Mode: mem.ModeEADR})
	if err != nil {
		return "", fmt.Errorf("repl x cluster: %w", err)
	}
	fmt.Fprintf(&b, "  repl x cluster       crashes=%d crashProbes=%d oraclePromotions=%d noAckedRefusals=%d\n",
		cres.CrashesFired, cp.CrashProbes, cp.OracleFailovers, cp.NoAckedAtProbe)

	pres, pm, err := crashfuzz.RunMediaUnderRepl(faultplane.Spec{Seeds: seeds},
		crashfuzz.ReplConfig{Mode: mem.ModeEADR, Replicas: 2}, 12)
	if err != nil {
		return "", fmt.Errorf("media x repl: %w", err)
	}
	fmt.Fprintf(&b, "  media x repl         crashes=%d rot=%d replicaRepairs=%d scrubRepairs=%d failovers=%d\n",
		pres.CrashesFired, pm.RotInjected, pm.ReplicaRepairs, pm.ScrubRepairs, pres.Failovers)
	fmt.Fprintf(&b, "  zero oracle convictions across all three composed campaigns\n")
	return b.String(), nil
}

func keys(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
