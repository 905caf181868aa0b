package cluster

import (
	"fmt"
	"strings"
	"testing"

	"treesls/internal/extsync"
	"treesls/internal/mem"
	"treesls/internal/obs/audit"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func newTestFleet(t *testing.T, c *Cluster, cfg FleetConfig) *Fleet {
	t.Helper()
	f, err := NewFleet(c, cfg)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	return f
}

func checkClean(t *testing.T, f *Fleet, where string) {
	t.Helper()
	if len(f.Violations) > 0 {
		t.Fatalf("%s: fleet violations: %s", where, strings.Join(f.Violations, "; "))
	}
	bad, err := f.CheckJustified()
	if err != nil {
		t.Fatalf("%s: CheckJustified: %v", where, err)
	}
	if len(bad) > 0 {
		t.Fatalf("%s: unjustified acknowledgements: %s", where, strings.Join(bad, "; "))
	}
	if err := f.c.ReleasedCovered(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
}

// TestClusterBoot: New leaves every shard committed at the boot cut, with
// the announced digests matching live state.
func TestClusterBoot(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		c := newTestCluster(t, Config{Shards: shards, Gated: true, Audit: true, Seed: 42})
		cut := c.Coord.Newest()
		if cut.Epoch != 1 {
			t.Fatalf("shards=%d: boot cut epoch %d, want 1", shards, cut.Epoch)
		}
		if err := c.VerifyCut(cut); err != nil {
			t.Fatalf("shards=%d: boot cut does not verify: %v", shards, err)
		}
		if got := len(c.CommittedVersions()); got != shards {
			t.Fatalf("CommittedVersions has %d entries, want %d", got, shards)
		}
	}
}

// TestClusterTraffic: a gated fleet runs to completion across shards, every
// acknowledgement covered by an announced cut, and the final quiesce round
// verifies against live state.
func TestClusterTraffic(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 3, Gated: true, Audit: true, Seed: 1})
	f := newTestFleet(t, c, FleetConfig{Clients: 3, KeysPerClient: 3, Requests: 6, Seed: 1})
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := uint64(3 * 3 * 6); f.TotalAcked() != want {
		t.Fatalf("TotalAcked = %d, want %d", f.TotalAcked(), want)
	}
	// The fleet must actually exercise more than one shard.
	used := map[int]bool{}
	for j := 0; j < f.Keys(); j++ {
		used[f.ShardOf(j)] = true
	}
	if len(used) < 2 {
		t.Fatalf("fleet only touched %d shard(s) — seed spreads too poorly", len(used))
	}
	if err := c.Round(); err != nil {
		t.Fatalf("quiesce round: %v", err)
	}
	if err := c.VerifyCut(c.Coord.Newest()); err != nil {
		t.Fatalf("final cut: %v", err)
	}
	checkClean(t, f, "after run")
	if c.Stats.Rounds == 0 {
		t.Fatal("no cluster rounds ran during a gated workload")
	}
}

// TestGatedValueAtSlotCapacity: a value of exactly extsync.MaxPayload bytes
// fits the echoed gated response, so every request acknowledges through
// the shard rings; one byte more is refused up front.
func TestGatedValueAtSlotCapacity(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, Gated: true, Audit: true, Seed: 3})
	if _, err := NewFleet(c, FleetConfig{ValueBytes: extsync.MaxPayload + 1}); err == nil {
		t.Fatalf("NewFleet accepted a %d-byte gated value", extsync.MaxPayload+1)
	}
	f := newTestFleet(t, c, FleetConfig{Clients: 2, KeysPerClient: 2, Requests: 4, ValueBytes: extsync.MaxPayload, Seed: 3})
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var released uint64
	for _, s := range c.Shards {
		released += s.Drv.Stats.Delivered
	}
	if want := uint64(2 * 2 * 4); f.TotalAcked() != want || released != want {
		t.Fatalf("acked %d, released %d, want %d each", f.TotalAcked(), released, want)
	}
	checkClean(t, f, "after run")
}

// TestClusterPowerFailMidTraffic: a whole-cluster power failure between
// rounds recovers every shard to the newest announced cut — digests match
// the announcement and no client holds an unjustified acknowledgement.
func TestClusterPowerFailMidTraffic(t *testing.T) {
	for _, persist := range []mem.PersistMode{mem.ModeEADR, mem.ModeADR} {
		c := newTestCluster(t, Config{Shards: 2, Gated: true, Audit: true, Seed: 9, Persist: persist})
		f := newTestFleet(t, c, FleetConfig{Clients: 2, KeysPerClient: 4, Requests: 8, Seed: 9})
		// Run partway: a fixed number of micro-steps with rounds on demand.
		for i := 0; i < 300; i++ {
			st, err := f.Step()
			if err != nil {
				t.Fatalf("persist=%v: Step: %v", persist, err)
			}
			if st == StepBlocked {
				if err := c.Round(); err != nil {
					t.Fatalf("persist=%v: Round: %v", persist, err)
				}
			}
			if st == StepDone {
				break
			}
		}
		cut, err := c.PowerFail()
		if err != nil {
			t.Fatalf("persist=%v: PowerFail: %v", persist, err)
		}
		if cut.Epoch == 0 {
			t.Fatalf("persist=%v: recovered to a zero cut", persist)
		}
		f.ResyncAll()
		checkClean(t, f, "after power failure")
		// Traffic continues to completion on the recovered cluster.
		if err := f.Run(); err != nil {
			t.Fatalf("persist=%v: Run after recovery: %v", persist, err)
		}
		checkClean(t, f, "after recovery run")
	}
}

// stepInto drives a fresh round up to exactly `steps` micro-actions, then
// returns (the round is left mid-flight for a crash injection).
func stepInto(t *testing.T, c *Cluster, steps int) {
	t.Helper()
	c.StartRound()
	for i := 0; i < steps; i++ {
		if c.CurrentPhase() == PhaseIdle {
			t.Fatalf("round finished after %d steps, wanted to stop at %d", i, steps)
		}
		if err := c.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// roundSteps counts the micro-actions of one full round: one prepare-report
// per shard, the announcement, one publish per shard, one release per shard.
func roundSteps(shards int) int { return 3*shards + 1 }

// TestClusterPowerFailEveryRoundStep: inject a whole-cluster power failure
// after every micro-action of an in-flight round. Whatever the phase, the
// cluster recovers to an announced cut with matching digests and the fleet
// finds every acknowledgement justified.
func TestClusterPowerFailEveryRoundStep(t *testing.T) {
	const shards = 2
	for step := 0; step <= roundSteps(shards); step++ {
		c := newTestCluster(t, Config{Shards: shards, Gated: true, Audit: true, Seed: 5})
		f := newTestFleet(t, c, FleetConfig{Clients: 2, KeysPerClient: 2, Requests: 4, Seed: 5})
		// Load up traffic so the round has something to cover.
		for i := 0; i < 120; i++ {
			st, err := f.Step()
			if err != nil {
				t.Fatalf("step=%d: traffic: %v", step, err)
			}
			if st != StepProgress {
				break
			}
		}
		stepInto(t, c, step)
		cut, err := c.PowerFail()
		if err != nil {
			t.Fatalf("crash after round step %d: %v", step, err)
		}
		f.ResyncAll()
		checkClean(t, f, "after mid-round power failure")
		if err := c.VerifyCut(cut); err != nil {
			t.Fatalf("step=%d: recovered cut: %v", step, err)
		}
		if err := f.Run(); err != nil {
			t.Fatalf("step=%d: Run after recovery: %v", step, err)
		}
		checkClean(t, f, "after recovery run")
	}
}

// TestClusterFailShardEveryRoundStep: crash one shard after every
// micro-action of an in-flight round. The recovery procedure finishes or
// re-forms the round; survivors keep their state, the victim recovers to
// the newest cut, and traffic completes.
func TestClusterFailShardEveryRoundStep(t *testing.T) {
	const shards = 2
	for victim := 0; victim < shards; victim++ {
		for step := 0; step <= roundSteps(shards); step++ {
			c := newTestCluster(t, Config{Shards: shards, Gated: true, Audit: true, Seed: 7})
			f := newTestFleet(t, c, FleetConfig{Clients: 2, KeysPerClient: 2, Requests: 4, Seed: 7})
			for i := 0; i < 120; i++ {
				st, err := f.Step()
				if err != nil {
					t.Fatalf("victim=%d step=%d: traffic: %v", victim, step, err)
				}
				if st != StepProgress {
					break
				}
			}
			stepInto(t, c, step)
			if err := c.FailShard(victim); err != nil {
				t.Fatalf("victim=%d step=%d: FailShard: %v", victim, step, err)
			}
			if c.CurrentPhase() != PhaseIdle {
				t.Fatalf("victim=%d step=%d: recovery left phase %v", victim, step, c.CurrentPhase())
			}
			f.ResyncShard(victim)
			checkClean(t, f, "after shard failure")
			if err := f.Run(); err != nil {
				t.Fatalf("victim=%d step=%d: Run after recovery: %v", victim, step, err)
			}
			checkClean(t, f, "after recovery run")
		}
	}
}

// TestClusterFailCoordinatorEveryRoundStep: lose the coordinator after
// every micro-action. The durable cut log survives; the replacement
// re-drives the round (re-collecting reports before the announcement,
// re-sending it after) and the cluster converges with clean digests.
func TestClusterFailCoordinatorEveryRoundStep(t *testing.T) {
	const shards = 2
	for step := 0; step <= roundSteps(shards); step++ {
		c := newTestCluster(t, Config{Shards: shards, Gated: true, Audit: true, Seed: 11})
		f := newTestFleet(t, c, FleetConfig{Clients: 2, KeysPerClient: 2, Requests: 4, Seed: 11})
		for i := 0; i < 120; i++ {
			st, err := f.Step()
			if err != nil {
				t.Fatalf("step=%d: traffic: %v", step, err)
			}
			if st != StepProgress {
				break
			}
		}
		stepInto(t, c, step)
		if err := c.FailCoordinator(); err != nil {
			t.Fatalf("step=%d: FailCoordinator: %v", step, err)
		}
		if c.CurrentPhase() != PhaseIdle {
			t.Fatalf("step=%d: recovery left phase %v", step, c.CurrentPhase())
		}
		// No machine was lost — no resync needed; traffic just continues.
		checkClean(t, f, "after coordinator failure")
		if err := f.Run(); err != nil {
			t.Fatalf("step=%d: Run after recovery: %v", step, err)
		}
		if err := c.Round(); err != nil {
			t.Fatalf("step=%d: quiesce round: %v", step, err)
		}
		if err := c.VerifyCut(c.Coord.Newest()); err != nil {
			t.Fatalf("step=%d: final cut: %v", step, err)
		}
		checkClean(t, f, "after recovery run")
	}
}

// TestClusterReplicatedDigests: with hot standbys attached, every shard's
// replication ledger holds, at each cut version, exactly the digest the cut
// announced — so a standby failover lands on announced cluster state.
func TestClusterReplicatedDigests(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, Gated: true, Replicate: true, Audit: true, Seed: 3})
	f := newTestFleet(t, c, FleetConfig{Clients: 2, KeysPerClient: 2, Requests: 6, Seed: 3})
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := c.Round(); err != nil {
		t.Fatalf("quiesce round: %v", err)
	}
	// Every shard's ledger must hold an entry for the newest cut's version:
	// the cut is a valid cluster-wide failover point.
	cut := c.Coord.Newest()
	for i, s := range c.Shards {
		var found bool
		for _, e := range s.Rep.Ledger() {
			if e.Version == cut.Versions[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %d: newest cut version v%d missing from the replication ledger",
				i, cut.Versions[i])
		}
	}
	// Failing over every shard at its last replication ack must land each
	// standby exactly on the newest cut, with the standby's restorable
	// digest matching the announced one — folded, they reproduce the
	// announced cluster digest on the standby fleet.
	versions := make([]uint64, len(c.Shards))
	digests := make([]uint64, len(c.Shards))
	for i, s := range c.Shards {
		fo, err := s.Rep.FailoverAt(s.Rep.LastAckAt())
		if err != nil {
			t.Fatalf("shard %d: FailoverAt: %v", i, err)
		}
		if fo.Version != cut.Versions[i] {
			t.Fatalf("shard %d: failover landed on v%d, newest cut names v%d", i, fo.Version, cut.Versions[i])
		}
		if fo.Digest != fo.ExpectedDigest {
			t.Fatalf("shard %d: failover digest %#x != ledger digest %#x", i, fo.Digest, fo.ExpectedDigest)
		}
		versions[i] = fo.Version
		digests[i] = audit.RestorableDigest(fo.Machine.Ckpt, fo.Machine.Memory)
		if digests[i] != cut.Digests[i] {
			t.Fatalf("shard %d: standby restorable digest %#x != cut e%d digest %#x",
				i, digests[i], cut.Epoch, cut.Digests[i])
		}
	}
	if fold := FoldDigests(versions, digests); fold != cut.Cluster {
		t.Fatalf("standby digest fold %#x != announced cluster digest %#x", fold, cut.Cluster)
	}
}

// TestClusterUngatedConviction: the baseline without the cut gate convicts
// itself — a power failure catches acknowledgements whose writes are absent
// after recovery. This is the control run proving the oracle has teeth.
func TestClusterUngatedConviction(t *testing.T) {
	var convicted bool
	for seed := uint64(0); seed < 5 && !convicted; seed++ {
		c := newTestCluster(t, Config{Shards: 2, Gated: false, Audit: true, Seed: seed})
		f := newTestFleet(t, c, FleetConfig{Clients: 2, KeysPerClient: 4, Requests: 8, Seed: int64(seed)})
		for i := 0; i < 200; i++ {
			st, err := f.Step()
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if st != StepProgress {
				break
			}
		}
		if _, err := c.PowerFail(); err != nil {
			t.Fatalf("PowerFail: %v", err)
		}
		f.ResyncAll()
		bad, err := f.CheckJustified()
		if err != nil {
			t.Fatalf("CheckJustified: %v", err)
		}
		if len(bad) > 0 {
			convicted = true
		}
	}
	if !convicted {
		t.Fatal("ungated cluster was never convicted — the justification oracle is toothless")
	}
}

// TestClusterEventsMonotone: the crash-at-event-K coordinate advances with
// traffic and rounds, and recovery does not count events.
func TestClusterEventsMonotone(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, Gated: true, Seed: 1})
	f := newTestFleet(t, c, FleetConfig{Clients: 2, KeysPerClient: 2, Requests: 2, Seed: 1})
	last := c.Events()
	for i := 0; i < 50; i++ {
		st, err := f.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if st == StepBlocked {
			if err := c.Round(); err != nil {
				t.Fatalf("Round: %v", err)
			}
		}
		if e := c.Events(); e < last {
			t.Fatalf("Events went backwards: %d -> %d", last, e)
		} else {
			last = e
		}
		if st == StepDone {
			break
		}
	}
	if last == 0 {
		t.Fatal("no events counted")
	}
}

// TestFleetFailTargets drives traffic with Advance and injects every
// failure kind through Fleet.Fail mid-run: each recovery leaves no
// unjustified acknowledgement, names its victims, and the fleet then runs
// to completion.
func TestFleetFailTargets(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 3, Gated: true, Audit: true, Seed: 5})
	f := newTestFleet(t, c, FleetConfig{Clients: 2, KeysPerClient: 3, Requests: 6, Seed: 5})
	for _, tc := range []struct {
		target  int
		victims []int
	}{
		{TargetCoord, nil},
		{1, []int{1}},
		{TargetPower, []int{0, 1, 2}},
	} {
		for i := 0; i < 40; i++ {
			if _, err := f.Advance(); err != nil {
				t.Fatalf("Advance: %v", err)
			}
		}
		if got := c.Victims(tc.target); fmt.Sprint(got) != fmt.Sprint(tc.victims) {
			t.Errorf("Victims(%s) = %v, want %v", TargetName(tc.target), got, tc.victims)
		}
		if err := f.Fail(tc.target); err != nil {
			t.Fatalf("Fail(%s): %v", TargetName(tc.target), err)
		}
		checkClean(t, f, "after "+TargetName(tc.target))
	}
	if err := f.Run(); err != nil {
		t.Fatalf("Run after failures: %v", err)
	}
	if want := uint64(2 * 3 * 6); f.TotalAcked() != want {
		t.Fatalf("TotalAcked = %d, want %d", f.TotalAcked(), want)
	}
	checkClean(t, f, "after run")
}
