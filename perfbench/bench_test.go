package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"treesls/internal/checkpoint"
	"treesls/internal/simclock"
)

// Small episodes of each workload, for the tests.
var small = map[string]runner{
	"kv-gated": func(seed uint64, traced bool) (*outcome, error) {
		return kvGated(seed, gatedSize{conns: 16, window: 2, preload: 64, acks: 1500}, traced)
	},
	"kv-largeheap": func(seed uint64, traced bool) (*outcome, error) {
		return kvLargeHeap(seed, heapSize{keys: 3000, valBytes: 900, heapPages: 1024, clients: 8,
			cycles: 2, crashGap: 4 * simclock.Millisecond}, traced)
	},
	"cluster-reshard": func(seed uint64, traced bool) (*outcome, error) {
		return reshard(seed, reshardSize{clusters: 2, clients: 8, keysPerClient: 8, window: 4, acks: 1500}, traced)
	},
}

// TestDeterminism: the same seed gives the same inputs and bit-identical
// simulated metrics and counts; another seed gives other inputs. Host
// metrics are not part of the comparison.
func TestDeterminism(t *testing.T) {
	for name, run := range small {
		t.Run(name, func(t *testing.T) {
			a, err := run(1, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(1, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSim(a, b); err != nil {
				t.Errorf("seed 1 twice: %v", err)
			}
			c, err := run(2, false)
			if err != nil {
				t.Fatal(err)
			}
			if c.inputs == a.inputs {
				t.Errorf("seeds 1 and 2 generated the same inputs (digest %x)", a.inputs)
			}
			for _, m := range endToEnd {
				if _, ok := a.sim[m.name]; !ok && m.name[:4] == "sim_" {
					t.Errorf("missing simulated metric %s", m.name)
				}
			}
		})
	}
}

// layerUse names, per workload, the per-layer metrics that must be nonzero
// in its traced run: the layers the workload exercises.
var layerUse = map[string][]string{
	"kv-gated": {
		"checkpoint.ipi_us_p50", "checkpoint.captree_us_p50", "checkpoint.others_us_p50",
		"checkpoint.release_us_p50", "checkpoint.walk_units_per_round", "caps.objects_per_round",
		"checkpoint.restore_host_ms_p50", "kernel.crash_host_ms_p50",
		"mem.nvm_writes_per_kop", "mem.flushes_per_kop", "mem.fences_per_kop",
		"journal.records_per_round", "kernel.ops_per_req",
		"net.fleet_step_host_us_p50", "net.steps_per_req", "kernel.ckpt_step_host_us_p50",
		"extsync.release_lag_us_p50", "net.retransmits",
		"repl.ack_lag_us_p50", "repl.kb_per_delta", "repl.full_syncs",
		"net.self_host_frac", "kernel.self_host_frac", "bench.driver_host_frac",
	},
	"kv-largeheap": {
		"checkpoint.copy_overhang_us_p99", "checkpoint.migrated_per_round",
		"checkpoint.cached_pages", "checkpoint.cow_faults_per_kop", "checkpoint.backup_pages",
		"checkpoint.take_host_us_p50", "checkpoint.restore_host_ms_p50", "kernel.crash_host_ms_p50",
		"kvstore.set_host_us_p50", "kvstore.get_host_us_p50", "kvstore.get_sim_us_p50",
		"alloc.ckpt_page_allocs_per_round", "mem.nvm_reads_per_kop",
		"kvstore.self_host_frac", "checkpoint.self_host_frac",
	},
	"cluster-reshard": {
		"checkpoint.captree_us_p50", "cluster.fleet_step_host_us_p50", "cluster.fleet_steps_per_req",
		"cluster.prepare_host_us_p50", "cluster.announce_host_us_p50", "cluster.publish_host_us_p50",
		"cluster.release_host_us_p50", "cluster.mig_step_host_us_p50", "cluster.powerfail_host_ms",
		"cluster.round_sim_us_p50", "cluster.rounds_per_kreq", "cluster.keys_moved",
		"cluster.migration_kb", "cluster.powerfail_sim_us",
		"audit.restorable_digest_host_us_p50", "audit.self_host_frac", "cluster.self_host_frac",
	},
}

// TestTracedRun: a traced episode reproduces the untraced simulation, yields
// the per-layer metrics of every layer the workload exercises, and writes a
// Chrome-trace file.
func TestTracedRun(t *testing.T) {
	for name, run := range small {
		t.Run(name, func(t *testing.T) {
			res, err := traced(run, name, 3, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatal("traced run not correct")
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range layerUse[name] {
				if res.Metrics[m].Value == 0 {
					t.Errorf("%s is 0", m)
				}
			}
		})
	}
}

// TestSTWDecomposition: the copy overhang is what STWTotal leaves after the
// other three parts, and a round is refused when that overhang is negative
// or longer than the round's hybrid copy.
func TestSTWDecomposition(t *testing.T) {
	o, err := small["kv-largeheap"](1, false)
	if err != nil {
		t.Fatal(err)
	}
	if o.sim["sim_rounds"] == 0 || o.sim["checkpoint.copy_overhang_us_p99"] == 0 {
		t.Fatalf("no hybrid-copy overhang measured: %v", o.sim)
	}
	var rs rounds
	if err := rs.add(checkpoint.Report{STWTotal: 10, IPIWait: 4, CapTree: 3, Others: 4, HybridCopy: 5}); err == nil {
		t.Error("accepted a round whose parts exceed its STW")
	}
	if err := rs.add(checkpoint.Report{STWTotal: 10, IPIWait: 4, CapTree: 3, Others: 2}); err == nil {
		t.Error("accepted an overhang with no hybrid copy")
	}
	if err := rs.add(checkpoint.Report{STWTotal: 10, IPIWait: 4, CapTree: 3, Others: 1, HybridCopy: 1}); err == nil {
		t.Error("accepted an overhang longer than the hybrid copy")
	}
	if err := rs.add(checkpoint.Report{STWTotal: 10, IPIWait: 4, CapTree: 3, Others: 2, HybridCopy: 5}); err != nil {
		t.Fatal(err)
	}
	if rs.over[0] != 1 {
		t.Errorf("overhang %d, want 1", rs.over[0])
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and the
// repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalog %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown to the command", w.Name)
		}
	}
}

// TestSelfTime: a layer's self time is its spans minus their child spans,
// and spans ending after the limit are left out.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{layer: "bench", parent: -1, host0: 0, host1: 10},
		{layer: "kernel", parent: 0, host0: 1, host1: 4},
		{layer: "checkpoint", parent: 0, host0: 4, host1: 9},
		{layer: "kernel", parent: -1, host0: 20, host1: 30},
	}}
	got := tr.selfByLayer(15)
	want := map[string]time.Duration{"bench": 2, "kernel": 3, "checkpoint": 5}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self time %v, want %v", k, got[k], v)
		}
	}
}
