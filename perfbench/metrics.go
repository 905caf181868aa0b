package main

import "time"

// metric names one reported figure and its unit. BENCHMARK.json lists the
// same names; TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports all of them.
var endToEnd = []metric{
	{"sim_set_p50_us", "us"},
	{"sim_set_p99_us", "us"},
	{"sim_stw_p50_us", "us"},
	{"sim_stw_p99_us", "us"},
	{"sim_kops_per_s", "kops/s"},
	{"sim_restore_p50_us", "us"},
	{"nvm_writes_per_user_write", "pages/write"},
	{"host_kops_per_s", "kops/s"},
	{"setup_s", "s"},
	{"host_alloc_kb_per_req", "KiB/req"},
	{"host_live_heap_mb", "MiB"},
}

// perLayer are the metrics of single layers, from the traced run. A metric
// of a layer the workload does not exercise reads 0.
var perLayer = []metric{
	// checkpoint STW parts; on every round the four add up to STWTotal.
	{"checkpoint.ipi_us_p50", "us"}, {"checkpoint.ipi_us_p99", "us"},
	{"checkpoint.captree_us_p50", "us"}, {"checkpoint.captree_us_p99", "us"},
	{"checkpoint.others_us_p50", "us"}, {"checkpoint.others_us_p99", "us"},
	{"checkpoint.copy_overhang_us_p50", "us"}, {"checkpoint.copy_overhang_us_p99", "us"},
	// checkpoint page movement
	{"checkpoint.hybridcopy_us_p50", "us"},
	{"checkpoint.release_us_p50", "us"},
	{"checkpoint.pages_copied_per_round", "pages/round"},
	{"checkpoint.migrated_per_round", "pages/round"},
	{"checkpoint.demoted_per_round", "pages/round"},
	{"checkpoint.cached_pages", "pages"},
	{"checkpoint.cow_faults_per_kop", "faults/kop"},
	{"checkpoint.backup_pages", "pages"},
	// capability-tree walk
	{"checkpoint.walk_units_per_round", "units/round"},
	{"checkpoint.walk_steals_per_round", "units/round"},
	{"caps.objects_per_round", "objects/round"},
	// host time of checkpoint and kernel calls
	{"checkpoint.take_host_us_p50", "us"}, {"checkpoint.take_host_us_p99", "us"},
	{"checkpoint.restore_host_ms_p50", "ms"},
	{"kernel.crash_host_ms_p50", "ms"},
	// kvstore
	{"kvstore.set_host_us_p50", "us"},
	{"kvstore.get_host_us_p50", "us"},
	{"kvstore.get_sim_us_p50", "us"},
	{"kvstore.get_sim_us_p99", "us"},
	// mem / alloc / journal / kernel counts
	{"mem.nvm_writes_per_kop", "pages/kop"},
	{"mem.nvm_reads_per_kop", "pages/kop"},
	{"mem.dram_writes_per_kop", "pages/kop"},
	{"mem.flushes_per_kop", "lines/kop"},
	{"mem.fences_per_kop", "fences/kop"},
	{"alloc.ckpt_page_allocs_per_round", "pages/round"},
	{"journal.records_per_round", "records/round"},
	{"kernel.ops_per_req", "ops/req"},
	// net / extsync
	{"net.fleet_step_host_us_p50", "us"},
	{"net.steps_per_req", "steps/req"},
	{"kernel.ckpt_step_host_us_p50", "us"}, {"kernel.ckpt_step_host_us_p99", "us"},
	{"extsync.release_lag_us_p50", "us"},
	{"extsync.ring_full", "count"},
	{"net.retransmits", "count"},
	// repl
	{"repl.ack_lag_us_p50", "us"}, {"repl.ack_lag_us_p99", "us"},
	{"repl.kb_per_delta", "KiB"},
	{"repl.full_syncs", "count"},
	// cluster, host
	{"cluster.fleet_step_host_us_p50", "us"},
	{"cluster.fleet_steps_per_req", "steps/req"},
	{"cluster.prepare_host_us_p50", "us"},
	{"cluster.announce_host_us_p50", "us"},
	{"cluster.publish_host_us_p50", "us"},
	{"cluster.release_host_us_p50", "us"},
	{"cluster.mig_step_host_us_p50", "us"},
	{"cluster.powerfail_host_ms", "ms"},
	// cluster, simulated
	{"cluster.round_sim_us_p50", "us"}, {"cluster.round_sim_us_p99", "us"},
	{"cluster.rounds_per_kreq", "rounds/kreq"},
	{"cluster.keys_moved", "count"},
	{"cluster.migration_kb", "KiB"},
	{"cluster.forwarded_requests", "count"},
	{"cluster.dual_writes", "count"},
	{"cluster.powerfail_sim_us", "us"},
	// obs/audit
	{"audit.restorable_digest_host_us_p50", "us"},
	// host self time per layer, as a share of the traced timed region
	{"kernel.self_host_frac", "frac"},
	{"checkpoint.self_host_frac", "frac"},
	{"kvstore.self_host_frac", "frac"},
	{"net.self_host_frac", "frac"},
	{"cluster.self_host_frac", "frac"},
	{"audit.self_host_frac", "frac"},
	// the benchmark itself
	{"bench.driver_host_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
}

// hostSpans maps per-layer host metrics to the span they summarise, the
// quantile and the unit scale (1 = microseconds, 1000 = milliseconds).
var hostSpans = []struct {
	metric, span string
	q, scale     float64
}{
	{"checkpoint.take_host_us_p50", "checkpoint.Machine.TakeCheckpoint", 0.50, 1},
	{"checkpoint.take_host_us_p99", "checkpoint.Machine.TakeCheckpoint", 0.99, 1},
	{"checkpoint.restore_host_ms_p50", "checkpoint.Machine.Restore", 0.50, 1000},
	{"kernel.crash_host_ms_p50", "kernel.Machine.Crash", 0.50, 1000},
	{"kvstore.set_host_us_p50", "kvstore.Server.SetAt", 0.50, 1},
	{"kvstore.get_host_us_p50", "kvstore.Server.GetAt", 0.50, 1},
	{"net.fleet_step_host_us_p50", "net.Fleet.Step", 0.50, 1},
	{"kernel.ckpt_step_host_us_p50", "kernel.ckpt_step", 0.50, 1},
	{"kernel.ckpt_step_host_us_p99", "kernel.ckpt_step", 0.99, 1},
	{"cluster.fleet_step_host_us_p50", "cluster.Fleet.Step", 0.50, 1},
	{"cluster.prepare_host_us_p50", "cluster.Step.prepare", 0.50, 1},
	{"cluster.announce_host_us_p50", "cluster.Step.announce", 0.50, 1},
	{"cluster.publish_host_us_p50", "cluster.Step.publish", 0.50, 1},
	{"cluster.release_host_us_p50", "cluster.Step.release", 0.50, 1},
	{"cluster.mig_step_host_us_p50", "cluster.MigStep", 0.50, 1},
	{"cluster.powerfail_host_ms", "cluster.PowerFail", 0.50, 1000},
	{"audit.restorable_digest_host_us_p50", "audit.RestorableDigest", 0.50, 1},
}

// layerMetrics derives the per-layer figures of a traced episode o; plain
// is the untraced episode of the same seed, the base of the trace overhead.
func layerMetrics(o, plain *outcome) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.name] = o.sim[m.name]
	}
	t := o.tr
	for _, h := range hostSpans {
		vals[h.metric] = quantile(t.hostUs(h.span), h.q) / h.scale
	}
	// Shares are of the timed region, whose checks are excluded; spans
	// after it (a post-stream crash) do not count. Self time of the
	// benchmark's own grouping spans (layer "bench") is generator time.
	var covered time.Duration
	for layer, d := range t.selfByLayer(t.window) {
		if layer == "bench" {
			continue
		}
		vals[layer+".self_host_frac"] = d.Seconds() / o.host.Seconds()
		covered += d
	}
	vals["bench.driver_host_frac"] = 1 - covered.Seconds()/o.host.Seconds()
	vals["bench.trace_overhead_frac"] = 1 - hostKops(o)/hostKops(plain)
	return vals
}
