package crashfuzz

// Composed-campaign tests: the three cross-domain campaigns the fault-plane
// engine exists to make possible. Each has a gated variant that must run
// conviction-free at scale, and an ablated baseline (checksums off, or gates
// off) that a named registry oracle must convict — proving the composed
// oracle set actually has teeth.

import (
	"errors"
	"testing"

	"treesls/internal/faultplane"
	"treesls/internal/mem"
)

// TestMediaDuringReshardCampaign stacks silent media damage on the elastic
// reshard campaign: every crash's victim shards get bit-rot planted in their
// restore-source backup slots immediately before the failure lands. With
// checksums and a backup replica the cluster must repair every fault it
// reads and keep all cut digests verifiable; with checksums disabled the
// same schedule must be convicted by a registered oracle.
func TestMediaDuringReshardCampaign(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	faults := 14
	if testing.Short() {
		seeds = seeds[:1]
		faults = 8
	}
	res, mres, err := RunMediaDuringReshard(faultplane.Spec{Seeds: seeds}, ReshardConfig{
		Mode:     mem.ModeEADR,
		Replicas: 2, // repair instead of degrade: degradation would break the announced cut digests
	}, faults)
	if err != nil {
		t.Fatalf("gated composed campaign convicted: %v", err)
	}
	if res.CrashesFired == 0 || mres.RotInjected == 0 {
		t.Fatalf("no faults composed: crashes=%d rot=%d", res.CrashesFired, mres.RotInjected)
	}
	if repaired := mres.ReplicaRepairs + mres.ScrubRepairs; repaired == 0 {
		t.Errorf("%d rot faults planted but none was ever repaired — injections missed the recovery path", mres.RotInjected)
	}
	if res.RolledBack == 0 || res.RolledForward == 0 {
		t.Errorf("outcome coverage under media damage: back=%d fwd=%d", res.RolledBack, res.RolledForward)
	}
	t.Logf("gated: %d crashes, %d rot faults, %d replica + %d scrub repairs, back=%d fwd=%d",
		res.CrashesFired, mres.RotInjected, mres.ReplicaRepairs, mres.ScrubRepairs,
		res.RolledBack, res.RolledForward)

	// Ablation: checksums off, no replicas — the identical schedule must be
	// convicted (silent rot restored into a shard breaks the digests its
	// cut announced).
	_, bmres, err := RunMediaDuringReshard(faultplane.Spec{Seeds: seeds}, ReshardConfig{
		Mode:             mem.ModeEADR,
		DisableChecksums: true,
	}, faults)
	var conv *faultplane.Conviction
	if !errors.As(err, &conv) {
		t.Fatalf("checksum-off baseline survived %d rot faults: err=%v", bmres.RotInjected, err)
	}
	t.Logf("baseline convicted by oracle %q after %d rot faults: %v", conv.Oracle, bmres.RotInjected, conv.Err)
}

// TestReplUnderClusterCrashCampaign stacks hot-standby failover probing on
// the cluster crash campaign: every victim shard's standby is promoted at
// the crash instant, and after every recovery a registry oracle re-promotes
// every shard's standby and holds it digest-exact and retry-deterministic.
// The gate-off ablation must be convicted by the justification oracle.
func TestReplUnderClusterCrashCampaign(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	perSeed := 24
	if testing.Short() {
		seeds = seeds[:2]
		perSeed = 10
	}
	res, pres, err := RunReplUnderCluster(faultplane.Spec{Seeds: seeds, RoundsPerSeed: perSeed}, ClusterConfig{
		Mode: mem.ModeEADR,
	})
	if err != nil {
		t.Fatalf("gated composed campaign convicted: %v", err)
	}
	if res.CrashesFired == 0 {
		t.Fatal("no crash ever fired")
	}
	if pres.CrashProbes == 0 {
		t.Error("no failover was ever probed at a crash instant")
	}
	if pres.OracleFailovers == 0 {
		t.Error("the standby-promotable oracle never ran a promotion")
	}
	t.Logf("gated: %d crashes, %d crash-instant probes, %d oracle promotions, %d no-acked refusals",
		res.CrashesFired, pres.CrashProbes, pres.OracleFailovers, pres.NoAckedAtProbe)

	// Ablation: drop the extsync gates. Responses then escape before a cut
	// covers them, and the first recovery that rolls acknowledged state back
	// is convicted by the justification oracle.
	_, _, err = RunReplUnderCluster(faultplane.Spec{Seeds: seeds, RoundsPerSeed: perSeed}, ClusterConfig{
		Mode:    mem.ModeEADR,
		Ungated: true,
	})
	var conv *faultplane.Conviction
	if !errors.As(err, &conv) {
		t.Fatalf("ungated baseline survived the campaign: err=%v", err)
	}
	t.Logf("baseline convicted by oracle %q: %v", conv.Oracle, conv.Err)
}

// TestMediaUnderReplCampaign stacks silent media damage on the replication
// crash campaign: rot lands in the primary's restore-source slots at each
// crash instant, failover is probed while the primary is down, and after
// the restore the primary must refold to the restorable digest recorded at
// the committed version's checkpoint. The checksum-off ablation must be
// convicted by the restored-digest oracle.
func TestMediaUnderReplCampaign(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	faults := 12
	if testing.Short() {
		seeds = seeds[:2]
		faults = 8
	}
	res, mres, err := RunMediaUnderRepl(faultplane.Spec{Seeds: seeds}, ReplConfig{
		Mode:     mem.ModeEADR,
		Replicas: 2, // repair instead of degrade: a degraded page would break the ledger digest
	}, faults)
	if err != nil {
		t.Fatalf("gated composed campaign convicted: %v", err)
	}
	if res.CrashesFired == 0 || mres.RotInjected == 0 {
		t.Fatalf("no faults composed: crashes=%d rot=%d", res.CrashesFired, mres.RotInjected)
	}
	if repaired := mres.ReplicaRepairs + mres.ScrubRepairs; repaired == 0 {
		t.Errorf("%d rot faults planted but none was ever repaired — injections missed the recovery path", mres.RotInjected)
	}
	if res.Failovers == 0 {
		t.Error("no failover was ever probed under media damage")
	}
	t.Logf("gated: %d crashes, %d rot faults, %d replica + %d scrub repairs, %d failovers",
		res.CrashesFired, mres.RotInjected, mres.ReplicaRepairs, mres.ScrubRepairs, res.Failovers)

	// Ablation: checksums off — silent rot restores into the primary and
	// the refold no longer matches the ledger.
	_, bmres, err := RunMediaUnderRepl(faultplane.Spec{Seeds: seeds}, ReplConfig{
		Mode:             mem.ModeEADR,
		DisableChecksums: true,
	}, faults)
	var conv *faultplane.Conviction
	if !errors.As(err, &conv) {
		t.Fatalf("checksum-off baseline survived %d rot faults: err=%v", bmres.RotInjected, err)
	}
	t.Logf("baseline convicted by oracle %q after %d rot faults: %v", conv.Oracle, bmres.RotInjected, conv.Err)
}

// TestComposedInjectionVolume is the acceptance floor for the composed
// campaigns as a set: across the three gated compositions, at least 1000
// faults must be injected (crashes plus composed media faults plus
// crash-instant failover probes) with zero oracle convictions. Scaled-down
// -short runs skip the floor.
func TestComposedInjectionVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("volume floor applies to the full campaign scale")
	}
	total := 0
	rres, rm, err := RunMediaDuringReshard(faultplane.Spec{Seeds: []uint64{4, 5, 6}}, ReshardConfig{
		Mode: mem.ModeEADR, Replicas: 2,
	}, 14)
	if err != nil {
		t.Fatalf("media×reshard convicted: %v", err)
	}
	total += rres.CrashesFired + rm.RotInjected
	cres, cp, err := RunReplUnderCluster(faultplane.Spec{Seeds: []uint64{4, 5, 6, 7, 8, 9}, RoundsPerSeed: 24}, ClusterConfig{
		Mode: mem.ModeEADR,
	})
	if err != nil {
		t.Fatalf("repl×cluster convicted: %v", err)
	}
	total += cres.CrashesFired + cp.CrashProbes
	pres, pm, err := RunMediaUnderRepl(faultplane.Spec{Seeds: []uint64{5, 6, 7, 8, 9, 10, 11}}, ReplConfig{
		Mode: mem.ModeEADR, Replicas: 2,
	}, 12)
	if err != nil {
		t.Fatalf("media×repl convicted: %v", err)
	}
	total += pres.CrashesFired + pm.RotInjected
	t.Logf("composed injection volume: %d (reshard %d+%d, cluster %d+%d, repl %d+%d)",
		total, rres.CrashesFired, rm.RotInjected, cres.CrashesFired, cp.CrashProbes,
		pres.CrashesFired, pm.RotInjected)
	if total < 1000 {
		t.Errorf("composed campaigns injected %d faults, want >= 1000", total)
	}
}
