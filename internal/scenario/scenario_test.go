package scenario

import (
	"testing"

	"treesls/internal/cluster"
	"treesls/internal/mem"
)

// power scripts whole-system power failures at the given event indices.
func power(at ...uint64) []Crash {
	cs := make([]Crash, len(at))
	for i, k := range at {
		cs[i] = Crash{At: k, Target: cluster.TargetPower}
	}
	return cs
}

// worldOf names the world a script runs in.
func worldOf(sc Script) string {
	if sc.Shards > 0 {
		return "cluster"
	}
	return "machine"
}

// wantAcked is the acknowledgement count of a completed run.
func wantAcked(sc Script) uint64 {
	sc.fill()
	return uint64(sc.Clients * sc.KeysPerClient * sc.Requests)
}

// assertSafe applies the invariants every gated run must satisfy.
func assertSafe(t *testing.T, sc Script, r Result) {
	t.Helper()
	if want := wantAcked(sc); r.Acked != want {
		t.Errorf("%s: acked %d, want %d", sc.Name, r.Acked, want)
	}
	if len(r.Unjustified) != 0 {
		t.Errorf("%s: external-synchrony violations: %v", sc.Name, r.Unjustified)
	}
	if len(r.CutViolations) != 0 {
		t.Errorf("%s: cut digest violations: %v", sc.Name, r.CutViolations)
	}
	if len(r.OrderViolations) != 0 {
		t.Errorf("%s: per-key FIFO violations: %v", sc.Name, r.OrderViolations)
	}
	if r.DupAcks != 0 {
		t.Errorf("%s: %d duplicate acknowledgements (gated path must not re-release)", sc.Name, r.DupAcks)
	}
	if r.AuditViolations != 0 {
		t.Errorf("%s: %d state-digest audit violations", sc.Name, r.AuditViolations)
	}
	if sc.Shards > 0 {
		if len(r.LinearizeViolations) != 0 {
			t.Errorf("%s: linearizability violations: %v", sc.Name, r.LinearizeViolations)
		}
		if r.LinearizeOps == 0 {
			t.Errorf("%s: linearizability oracle saw no operations", sc.Name)
		}
	}
	if r.Crashes+r.CrashesSkipped != len(sc.Crashes) {
		t.Errorf("%s: %d crashes fired + %d skipped, scripted %d",
			sc.Name, r.Crashes, r.CrashesSkipped, len(sc.Crashes))
	}
}

// TestCleanRun: an uncrashed gated run in each world acknowledges every
// request through the gates, without a single crash artifact.
func TestCleanRun(t *testing.T) {
	for _, sc := range []Script{
		{Name: "clean", Seed: 1, Clients: 4, Requests: 10, Window: 3, Gated: true},
		{Name: "clean", Seed: 1, Shards: 3, Clients: 3, KeysPerClient: 2, Requests: 8, Gated: true},
	} {
		sc := sc
		t.Run(worldOf(sc), func(t *testing.T) {
			r, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			assertSafe(t, sc, r)
			if r.Released < r.Acked {
				t.Errorf("released %d < acked %d: some acknowledgements bypassed the gates", r.Released, r.Acked)
			}
			if r.Retransmits != 0 || r.DroppedRequests != 0 || r.DroppedResponses != 0 {
				t.Errorf("clean run saw crash artifacts: retrans=%d dropreq=%d dropresp=%d",
					r.Retransmits, r.DroppedRequests, r.DroppedResponses)
			}
			if r.Checkpoints == 0 {
				t.Error("gated run completed without a single checkpoint")
			}
			if sc.Shards > 0 && (r.Rounds == 0 || r.Cuts < 2) {
				t.Errorf("gated run completed with %d rounds / %d cuts", r.Rounds, r.Cuts)
			}
		})
	}
}

// TestScenarioTable runs gated crash scripts in both worlds (subtests
// machine and cluster): across seeds, client counts, window depths and
// checkpoint intervals on one machine, and across shard counts, persist
// modes and crash targets in the cluster.
// Every one must uphold the invariant: client-visible responses are exactly
// a prefix of what the recovered state justifies, and cluster recovery
// digests match the announced cut.
func TestScenarioTable(t *testing.T) {
	scripts := []Script{
		// Machine world.
		{Name: "single-early-crash", Seed: 1, Clients: 2, Requests: 6, Window: 2, Gated: true,
			Crashes: power(5)},
		{Name: "mid-run-crash", Seed: 2, Clients: 3, Requests: 8, Window: 2, Gated: true,
			Crashes: power(40)},
		{Name: "double-crash", Seed: 3, Clients: 3, Requests: 8, Window: 2, Gated: true,
			Crashes: power(20, 70)},
		{Name: "crash-storm", Seed: 4, Clients: 2, Requests: 10, Window: 2, Gated: true,
			Crashes: power(10, 30, 50, 80, 120)},
		{Name: "wide-window", Seed: 5, Clients: 4, Requests: 8, Window: 6, Gated: true,
			Crashes: power(60)},
		{Name: "many-clients", Seed: 6, Clients: 8, Requests: 5, Window: 2, Cores: 8, Gated: true,
			Crashes: power(90)},
		{Name: "slow-interval", Seed: 7, Clients: 3, Requests: 6, Window: 2, IntervalUs: 5000, Gated: true,
			Crashes: power(35)},
		{Name: "fast-interval", Seed: 8, Clients: 3, Requests: 6, Window: 2, IntervalUs: 200, Gated: true,
			Crashes: power(35)},
		{Name: "manual-checkpoints", Seed: 9, Clients: 2, Requests: 6, Window: 2, IntervalUs: -1, Gated: true,
			Crashes: power(25)},
		{Name: "late-crash", Seed: 10, Clients: 2, Requests: 6, Window: 2, Gated: true,
			Crashes: power(55)},
		// Cluster world.
		{Name: "early-power", Seed: 1, Shards: 2, Gated: true,
			Crashes: power(10)},
		{Name: "mid-shard0", Seed: 2, Shards: 2, Gated: true,
			Crashes: []Crash{{At: 40, Target: 0}}},
		{Name: "mid-shard1", Seed: 3, Shards: 2, Gated: true,
			Crashes: []Crash{{At: 40, Target: 1}}},
		{Name: "coordinator-loss", Seed: 4, Shards: 2, Gated: true,
			Crashes: []Crash{{At: 35, Target: cluster.TargetCoord}}},
		{Name: "coord-then-power", Seed: 5, Shards: 2, Gated: true,
			Crashes: []Crash{{At: 25, Target: cluster.TargetCoord}, {At: 70, Target: cluster.TargetPower}}},
		{Name: "shard-storm", Seed: 6, Shards: 3, Clients: 3, Gated: true,
			Crashes: []Crash{{At: 20, Target: 0}, {At: 50, Target: 1}, {At: 80, Target: 2}}},
		{Name: "double-power", Seed: 7, Shards: 2, Gated: true,
			Crashes: power(15, 60)},
		{Name: "adr-power", Seed: 8, Shards: 2, Gated: true, Persist: mem.ModeADR,
			Crashes: power(30)},
		{Name: "adr-shard", Seed: 9, Shards: 2, Gated: true, Persist: mem.ModeADR,
			Crashes: []Crash{{At: 45, Target: 1}}},
		{Name: "replicated-power", Seed: 10, Shards: 2, Gated: true, Replicate: true,
			Crashes: power(40)},
		{Name: "four-shards", Seed: 11, Shards: 4, Clients: 4, Gated: true,
			Crashes: []Crash{{At: 60, Target: 2}, {At: 110, Target: cluster.TargetCoord}}},
		{Name: "back-to-back", Seed: 12, Shards: 2, Gated: true,
			Crashes: []Crash{{At: 30, Target: 0}, {At: 31, Target: 1}}},
	}
	for _, world := range []string{"machine", "cluster"} {
		t.Run(world, func(t *testing.T) {
			for _, sc := range scripts {
				if worldOf(sc) != world {
					continue
				}
				sc := sc
				t.Run(sc.Name, func(t *testing.T) {
					r, err := Run(sc)
					if err != nil {
						t.Fatal(err)
					}
					assertSafe(t, sc, r)
					checkScenarioGolden(t, sc.Name, r)
				})
			}
		})
	}
}

// TestCrashAtEveryEvent sweeps a small gated script's entire event space in
// each world, for every crash target in turn — power on the machine; power,
// the coordinator and each shard in the cluster. The invariant must hold at
// every single event boundary.
func TestCrashAtEveryEvent(t *testing.T) {
	for _, tc := range []struct {
		base        Script
		shortStride uint64
		targets     []int
	}{
		{Script{Name: "sweep", Seed: 11, Clients: 2, Requests: 4, Window: 2, Gated: true},
			5, []int{cluster.TargetPower}},
		{Script{Name: "sweep", Seed: 13, Shards: 2, Clients: 2, KeysPerClient: 2, Requests: 3, Gated: true},
			7, []int{cluster.TargetPower, cluster.TargetCoord, 0, 1}},
	} {
		base := tc.base
		total, err := EventCount(base)
		if err != nil {
			t.Fatal(err)
		}
		if total < 20 {
			t.Fatalf("%s: clean run generated only %d events; sweep would be vacuous", worldOf(base), total)
		}
		stride := uint64(1)
		if testing.Short() {
			stride = tc.shortStride
		}
		for _, target := range tc.targets {
			target := target
			t.Run(worldOf(base)+"/"+cluster.TargetName(target), func(t *testing.T) {
				for k := uint64(1); k <= total; k += stride {
					sc := base
					sc.Name = "sweep-k"
					sc.Crashes = []Crash{{At: k, Target: target}}
					r, err := Run(sc)
					if err != nil {
						t.Fatalf("k=%d: %v", k, err)
					}
					if len(r.Unjustified) != 0 {
						t.Errorf("k=%d: external-synchrony violations: %v", k, r.Unjustified)
					}
					if len(r.CutViolations) != 0 {
						t.Errorf("k=%d: cut digest violations: %v", k, r.CutViolations)
					}
					if len(r.OrderViolations) != 0 {
						t.Errorf("k=%d: FIFO violations: %v", k, r.OrderViolations)
					}
					if want := wantAcked(sc); r.Acked != want {
						t.Errorf("k=%d: acked %d, want %d", k, r.Acked, want)
					}
				}
			})
		}
	}
}

// TestUngatedConvicted proves the harness has teeth in each world: with the
// gates off, responses leave at operation end, so a power failure between a
// response and its covering checkpoint (or cut) must produce at least one
// acknowledged-but-unjustified request somewhere in the sweep — and the
// identical gated sweep must produce none.
func TestUngatedConvicted(t *testing.T) {
	for _, tc := range []struct {
		base   Script
		points []uint64
	}{
		{Script{Name: "ungated", Seed: 12, Clients: 2, Requests: 6, Window: 2, IntervalUs: 5000},
			[]uint64{8, 15, 25, 40, 60}},
		{Script{Name: "ungated", Seed: 14, Shards: 2},
			[]uint64{10, 20, 35, 55, 80}},
	} {
		tc := tc
		t.Run(worldOf(tc.base), func(t *testing.T) {
			var convictions int
			for _, k := range tc.points {
				sc := tc.base
				sc.Crashes = power(k)
				r, err := Run(sc)
				if err != nil {
					t.Fatalf("ungated k=%d: %v", k, err)
				}
				convictions += len(r.Unjustified)

				sc.Name, sc.Gated = "gated-control", true
				g, err := Run(sc)
				if err != nil {
					t.Fatalf("gated k=%d: %v", k, err)
				}
				if len(g.Unjustified) != 0 {
					t.Errorf("gated control k=%d: violations: %v", k, g.Unjustified)
				}
			}
			if convictions == 0 {
				t.Error("ungated baseline survived every crash point: the harness cannot detect violations")
			}
		})
	}
}

// TestScenarioDeterminism runs a crashy script in each world twice and
// demands bit-identical results — the digest hashes every acknowledgement
// (conn, req, receive time), every crash and recovery, and the final
// counters. CI runs this under -race.
func TestScenarioDeterminism(t *testing.T) {
	for _, sc := range []Script{
		{Name: "det", Seed: 13, Clients: 3, Requests: 8, Window: 2, Gated: true,
			Crashes: power(15, 60)},
		{Name: "det", Seed: 15, Shards: 3, Clients: 3, Requests: 6, Gated: true, Replicate: true,
			Crashes: []Crash{{At: 20, Target: 1}, {At: 55, Target: cluster.TargetCoord}, {At: 90, Target: cluster.TargetPower}}},
	} {
		sc := sc
		t.Run(worldOf(sc), func(t *testing.T) {
			a, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest != b.Digest {
				t.Errorf("digests differ across identical runs: %#x vs %#x", a.Digest, b.Digest)
			}
			if a.Acked != b.Acked || a.FinalTime != b.FinalTime || a.Retransmits != b.Retransmits ||
				a.Checkpoints != b.Checkpoints || a.Rounds != b.Rounds || a.Events != b.Events {
				t.Errorf("results differ: %+v vs %+v", a, b)
			}

			// A different seed shifts jitter (and in the cluster, crash
			// damage and the keyspace draw), and must change the digest.
			sc.Seed++
			c, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if c.Digest == a.Digest {
				t.Error("different seed produced an identical digest: seeds not flowing into the run")
			}
		})
	}
}

// TestScriptWorldChecks: a field only the other world can honour is
// rejected, never silently ignored.
func TestScriptWorldChecks(t *testing.T) {
	for _, sc := range []Script{
		{Name: "machine-reshard", Reshards: []Reshard{{At: 1, Add: true}}},
		{Name: "machine-shard-crash", Crashes: []Crash{{At: 1, Target: 0}}},
		{Name: "machine-replicate", Replicate: true},
		{Name: "cluster-interval", Shards: 2, IntervalUs: 500},
	} {
		if _, err := Run(sc); err == nil {
			t.Errorf("%s: accepted a field its world cannot honour", sc.Name)
		}
	}
}
