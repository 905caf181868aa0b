// Package experiments regenerates every table and figure of the TreeSLS
// paper's evaluation (§7) on the simulated machine: Table 2 (workload
// composition), Figure 9 (STW breakdown), Table 3 (per-object times),
// Figure 10 (runtime overhead), Table 4 (hybrid copy), Figure 11 (checkpoint
// frequency), Figure 12 (external synchrony), Figure 13 (YCSB on Redis),
// Figure 14 (RocksDB under Prefix_dist), the §7.2 functional tests, and a
// Figure 7 copy-method ablation.
//
// Each experiment returns typed rows plus a formatted table; absolute
// numbers come from the calibrated cost model, so the *shape* (who wins,
// by what factor, where crossovers fall) is the claim, not the absolute
// microseconds. EXPERIMENTS.md records paper-vs-measured for every row.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"treesls/internal/kernel"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// Scale sizes the experiment workloads. Quick keeps every experiment inside
// a few seconds of host CPU (tests, benches); Full runs closer to paper
// proportions for the CLI harness.
type Scale struct {
	Name      string
	KVOps     int    // driven requests per benchmark point
	Records   uint64 // loaded keyspace for YCSB
	ValueSize int    // value payload bytes
	Clients   int    // logical client threads
	DataKiB   int    // phoenix dataset size
	RunMillis int    // duration for time-driven measurements

	// Obs, when non-nil, attaches the observability layer to every
	// machine an experiment boots: per-phase STW spans and checkpoint
	// metrics (e.g. checkpoint.stw_ns) land in one shared trace/registry
	// across the whole run. Audit additionally runs the state-digest
	// auditor after every checkpoint and restore. Both are free in
	// simulated time, so measured shapes are unchanged.
	Obs   *obs.Observer
	Audit bool

	// SerialWalk forces the serial reference capability-tree walk on
	// every machine an experiment boots (the -parallel-walk=false CLI
	// flag); the default is the parallel work-queue walk.
	SerialWalk bool
}

// applyObs attaches the scale's observability and walk settings to a kernel
// config.
func (s Scale) applyObs(cfg kernel.Config) kernel.Config {
	cfg.Obs = s.Obs
	cfg.Audit = s.Audit
	cfg.Checkpoint.ParallelWalk = !s.SerialWalk
	return cfg
}

// QuickScale is the CI-sized configuration.
func QuickScale() Scale {
	return Scale{
		Name:      "quick",
		KVOps:     4000,
		Records:   800,
		ValueSize: 128,
		Clients:   8,
		DataKiB:   64,
		RunMillis: 10,
	}
}

// FullScale runs bigger workloads for the CLI harness.
func FullScale() Scale {
	return Scale{
		Name:      "full",
		KVOps:     40000,
		Records:   8000,
		ValueSize: 512,
		Clients:   50,
		DataKiB:   512,
		RunMillis: 100,
	}
}

// percentile returns the p-quantile (0..1) of ds.
func percentile(ds []simclock.Duration, p float64) simclock.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := make([]simclock.Duration, len(ds))
	copy(s, ds)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// mean returns the average of ds.
func mean(ds []simclock.Duration) simclock.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum simclock.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / simclock.Duration(len(ds))
}

// table renders rows as a fixed-width text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// BenchDoc is the one BENCH_*.json document every figure gate emits (CI
// archives them as BENCH_ckpt/net/scrub/repl/cluster/reshard.json): the
// figure name, the scale, figure-level counters where a figure has them,
// and the measured rows.
type BenchDoc struct {
	Figure string `json:"figure"`
	Scale  string `json:"scale"`
	// KeysMoved is the reshard figure's epoch size (nil elsewhere).
	KeysMoved *uint64 `json:"keys_moved,omitempty"`
	Rows      any     `json:"rows"`
}

// WriteBenchJSON emits doc as an indented JSON document.
func WriteBenchJSON(w io.Writer, doc BenchDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
