// Command treesls-crashdemo narrates a whole-system crash/restore cycle:
// it boots a machine, runs a key-value store with 1 ms checkpointing and
// external synchrony, pulls the (virtual) power plug at a configurable
// moment, reboots, and shows what survived — and, crucially, what a client
// was never told about. With -shards N it narrates the cluster version
// instead: a consistent-hash sharded cluster loses power mid-traffic and
// recovers every shard onto one announced consistent cut.
package main

import (
	"flag"
	"fmt"
	"os"

	"treesls/internal/apps/kvstore"
	"treesls/internal/cluster"
	"treesls/internal/crashfuzz"
	"treesls/internal/extsync"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/repl"
	"treesls/internal/simclock"
)

func main() {
	ops := flag.Int("ops", 500, "SET operations before the crash")
	extsyncOn := flag.Bool("extsync", true, "route responses through the external-synchrony driver")
	persist := flag.String("persist-mode", "eadr", "persistence model: eadr (stores durable on landing) or adr (explicit flush+fence required)")
	crashSeed := flag.Uint64("crash-seed", 1, "RNG seed for ADR crash damage (which unflushed lines drop or tear)")
	mediaFaults := flag.Int("media-faults", 0, "random NVM lines poisoned at each power failure (seeded by -crash-seed)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background media-scrub period in simulated time (0 disables), e.g. 2ms")
	parallelWalk := flag.Bool("parallel-walk", true, "partition the checkpoint capability-tree walk across all lanes (false: serial reference walk)")
	replicate := flag.Bool("replicate", false, "stream checkpoint deltas to a hot standby and promote it at the crash")
	replMode := flag.String("repl-mode", "local", "replication durability contract: local (async standby) or remote (responses wait for the standby ack)")
	shards := flag.Int("shards", 0, "if > 0, narrate the sharded-cluster crash instead: N shards lose power mid-traffic and recover onto one consistent cut")
	reshard := flag.Bool("reshard", false, "with -shards: narrate an elastic scale-out — power fails mid-migration (whole rollback), then a clean retry commits the new ring")
	campaign := flag.String("campaign", "", "narrate a composed fault-plane campaign instead: media-reshard, repl-cluster, or media-repl (seeded by -crash-seed)")
	obsOpts := obs.AddFlags(nil)
	flag.Parse()

	mode, err := mem.ParsePersistMode(*persist)
	check(err)
	if *campaign != "" {
		composedDemo(*campaign, mode, *crashSeed)
		return
	}
	if *shards > 0 && *reshard {
		reshardDemo(*shards, mode, *crashSeed)
		return
	}
	if *shards > 0 {
		clusterDemo(*shards, mode, *crashSeed, *replicate)
		return
	}
	rmode, err := repl.ParseMode(*replMode)
	check(err)
	cfg := kernel.DefaultConfig()
	cfg.Mem.Persist = mode
	cfg.Mem.CrashSeed = *crashSeed
	cfg.Mem.Media = mem.MediaFaultConfig{CrashFaults: *mediaFaults, Seed: *crashSeed}
	cfg.ScrubEvery = simclock.Duration(scrubInterval.Nanoseconds())
	cfg.Checkpoint.ParallelWalk = *parallelWalk
	ob := obsOpts.Observer()
	cfg.Obs = ob
	cfg.Audit = obsOpts.Audit
	m := kernel.New(cfg)
	fmt.Printf("▸ booted TreeSLS machine: 8 cores, 1 ms whole-system checkpoints, %s persistency\n", mode)

	var drv *extsync.Driver
	acked := 0
	if *extsyncOn {
		var err error
		drv, err = extsync.NewDriver(m, 8192)
		check(err)
		drv.SetDeliver(func(seq uint64, payload []byte, at simclock.Time) {
			acked++
		})
		fmt.Println("▸ external synchrony on: clients see an ack only after a checkpoint")
	}

	var rep *repl.Replicator
	if *replicate {
		rep = repl.Attach(m, drv, repl.Config{Mode: rmode})
		fmt.Printf("▸ replication on (%s mode): every checkpoint streams a delta to the hot standby\n", rmode)
	}

	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "kv", Threads: 4, HeapPages: 4096, Buckets: 2048, Ext: drv,
	})
	check(err)

	// Run at least the requested ops AND long enough for several periodic
	// checkpoints, then keep a small uncommitted tail before the crash.
	i := 0
	for ; i < *ops || m.Now() < simclock.Time(5*simclock.Millisecond); i++ {
		key := fmt.Sprintf("key-%04d", i)
		_, _, err := srv.Set(i, []byte(key), []byte(fmt.Sprintf("value-%d", i)))
		check(err)
	}
	m.SettleTo(m.NextCheckpointAt()) // release pending acks
	for tail := 0; tail < 7; tail++ {
		_, _, err := srv.Set(i, []byte(fmt.Sprintf("key-%04d", i)), []byte("doomed"))
		check(err)
		i++
	}
	n, err := srv.Count()
	check(err)
	fmt.Printf("▸ stored %d keys; machine time %v; %d checkpoints taken so far\n",
		n, m.Now().Sub(0), m.Stats.Checkpoints)

	fmt.Println("▸ PULLING THE PLUG (DRAM and all runtime state are gone)")
	crashAt := m.Now()
	m.Crash()
	if mode == mem.ModeADR {
		fmt.Printf("▸ ADR damage: %d unflushed lines at risk — %d dropped, %d torn\n",
			m.Memory.Stats.CrashLinesAtRisk, m.Memory.Stats.CrashLinesDropped, m.Memory.Stats.CrashLinesTorn)
	}
	if *mediaFaults > 0 {
		fmt.Printf("▸ media damage: %d NVM lines poisoned by the power failure\n",
			m.Memory.Stats.PoisonedLines)
	}

	if rep != nil {
		st := rep.Stats
		fmt.Printf("▸ replication at the crash: %d deltas shipped (%d full syncs), %d bytes, %d acks\n",
			st.Deltas, st.FullSyncs, st.BytesSent, st.Acks)
		if fo, err := rep.FailoverAt(crashAt); err != nil {
			fmt.Printf("▸ standby promotion would refuse: %v\n", err)
		} else {
			fmt.Printf("▸ had the whole primary been lost, the standby promotes at checkpoint v%d (acked v%d at the crash instant): %d folded deltas, digest match=%v\n",
				fo.Version, rep.AckedVersion(crashAt), fo.FoldedDeltas, fo.Digest == fo.ExpectedDigest)
		}
		fmt.Println("▸ the primary's NVM survived, so we restore locally instead")
	}

	check(m.Restore())
	n2, err := srv.Count()
	check(err)
	fmt.Printf("▸ rebooted from checkpoint version %d: %d keys survived\n",
		m.Ckpt.CommittedVersion(), n2)
	if man := m.Ckpt.Manifest(); man != nil && !man.Clean() {
		fmt.Printf("▸ restore manifest: %d pages degraded to an older version, %d lost (rebuilt as zeros) — named, never silent\n",
			len(man.Degraded), len(man.Lost))
	}

	lost := int(n) - int(n2)
	if lost < 0 {
		lost = 0
	}
	fmt.Printf("▸ %d keys from the last <1ms were rolled back", lost)
	if drv != nil {
		fmt.Printf(" — and NO client was ever acked for them (%d acks released, %d discarded)",
			acked, drv.Stats.Discarded)
	}
	fmt.Println()

	// The machine keeps running.
	_, _, err = srv.Set(0, []byte("post-restore"), []byte("alive"))
	check(err)
	_, v, ok, err := srv.Get(0, []byte("post-restore"))
	check(err)
	fmt.Printf("▸ server is live after reboot: post-restore=%q (found=%v)\n", v, ok)

	cs := m.Ckpt.Stats
	if *mediaFaults > 0 || *scrubInterval > 0 || cs.ReplicaRepair+cs.MetaRepairs+cs.DegradedRestores+cs.LostPages > 0 {
		fmt.Printf("▸ robustness: %d poisoned reads detected, %d replica repairs, %d meta repairs, %d degraded, %d lost\n",
			m.Memory.Stats.PoisonedReads, cs.ReplicaRepair, cs.MetaRepairs, cs.DegradedRestores, cs.LostPages)
		if *scrubInterval > 0 {
			fmt.Printf("▸ scrubber: %d passes, %d pages checked, %d repaired, %d quarantined, %d unrepairable\n",
				cs.ScrubScans, cs.ScrubPagesChecked, cs.ScrubRepairs, cs.ScrubQuarantined, cs.ScrubUnrepairable)
		}
	}
	if m.Auditor != nil {
		fmt.Printf("▸ auditor: %d checks, %d violations (runtime digest %#x)\n",
			m.Auditor.Checks, m.Auditor.TotalViolations, m.LastAudit.RuntimeDigest)
	}
	check(obsOpts.Finish(ob, os.Stdout, m.Now()))
}

// clusterDemo narrates the sharded-cluster version of the crash story: a
// fleet routes keys through the consistent-hash ring, the whole cluster
// loses power mid-run, and recovery converges every shard onto the newest
// announced consistent cut — with no client holding an unjustifiable ack.
func clusterDemo(shards int, mode mem.PersistMode, seed uint64, replicate bool) {
	c, err := cluster.New(cluster.Config{
		Shards:    shards,
		Gated:     true,
		Replicate: replicate,
		Persist:   mode,
		Seed:      seed,
		Audit:     true,
	})
	check(err)
	fmt.Printf("▸ booted a %d-shard TreeSLS cluster (%s persistency): consistent-hash keyspace, cut-gated responses\n",
		shards, mode)
	if replicate {
		fmt.Println("▸ replication on: every shard streams checkpoint deltas to its own hot standby")
	}

	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients: 4, KeysPerClient: 4, Requests: 8, Window: 2, Seed: int64(seed),
	})
	check(err)

	// Run roughly half the traffic, then pull the plug mid-flight.
	half := uint64(fleet.Keys()) * 4
	for fleet.TotalAcked() < half {
		_, err := fleet.Advance()
		check(err)
	}
	fmt.Printf("▸ %d requests acked across the cluster; %d cuts announced (newest epoch %d)\n",
		fleet.TotalAcked(), len(c.Coord.Cuts()), c.Coord.Newest().Epoch)

	fmt.Println("▸ PULLING THE PLUG ON EVERY SHARD AT ONCE")
	cut, err := c.PowerFail()
	check(err)
	fleet.ResyncAll()
	fmt.Printf("▸ every shard recovered onto cut epoch %d: versions %v, cluster digest %#016x\n",
		cut.Epoch, cut.Versions, cut.Cluster)
	check(c.VerifyCut(cut))
	fmt.Println("▸ per-shard digests reproduce the announcement — the cut is consistent")
	bad, err := fleet.CheckJustified()
	check(err)
	if len(bad) > 0 {
		fmt.Printf("▸ VIOLATION: %d acks the recovered cluster cannot justify: %v\n", len(bad), bad[0])
		os.Exit(1)
	}
	fmt.Println("▸ no client holds an ack the recovered cluster cannot justify")

	// The cluster keeps serving: the fleet retransmits and finishes.
	check(fleet.Run())
	fmt.Printf("▸ cluster is live after reboot: %d/%d requests acked, %d retransmits, %d rounds total\n",
		fleet.TotalAcked(), fleet.Keys()*8, fleet.Retransmits, c.Stats.Rounds)
}

// reshardDemo narrates elastic online resharding: an add-shard migration
// epoch streams keys under live traffic, power fails mid-stream — and the
// recovery rolls the whole epoch back to the old ring, because the commit
// cut was never announced. A retry then runs to its commit cut, the ring
// flips atomically at the announcement, and the fleet reroutes.
func reshardDemo(shards int, mode mem.PersistMode, seed uint64) {
	c, err := cluster.New(cluster.Config{
		Shards: shards, Gated: true, Persist: mode, Seed: seed, Audit: true,
	})
	check(err)
	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients: 4, KeysPerClient: 4, Requests: 0, Window: 2, Seed: int64(seed),
	})
	check(err)
	fmt.Printf("▸ booted a %d-shard TreeSLS cluster (%s persistency), ring v%d %v\n",
		shards, mode, c.Ring.Version(), c.Ring.Members())

	step := func() {
		_, err := fleet.Advance()
		check(err)
	}
	for fleet.TotalAcked() < uint64(fleet.Keys())*3 {
		step()
	}
	fmt.Printf("▸ %d requests acked under steady load; starting an online scale-out to %d shards\n",
		fleet.TotalAcked(), shards+1)

	joiner, err := c.StartAddShard()
	check(err)
	st := c.MigrationStatus()
	for !c.MigrationInFlight() || st.Phase == cluster.MigScan {
		step()
		st = c.MigrationStatus()
	}
	fmt.Printf("▸ migration epoch open: %d keys planned for shard %d, %d streamed so far — traffic keeps flowing\n",
		st.PlanKeys, joiner, st.Streamed)

	fmt.Println("▸ PULLING THE PLUG MID-MIGRATION (keys in flight, commit cut not announced)")
	cut, err := c.PowerFail()
	check(err)
	fleet.ResyncAll()
	fmt.Printf("▸ recovered onto cut epoch %d naming ring v%d %v: the epoch rolled back WHOLE — no split-brain mix\n",
		cut.Epoch, c.Ring.Version(), c.Ring.Members())
	if c.MigrationInFlight() {
		fmt.Println("▸ VIOLATION: migration survived the crash")
		os.Exit(1)
	}
	fmt.Printf("▸ aborted epochs so far: %d; the joiner re-imaged to its boot state\n", c.Stats.MigrationsAborted)

	// Retry: this time the epoch runs through its commit cut.
	for c.CurrentPhase() != cluster.PhaseIdle {
		step()
	}
	_, err = c.StartAddShard()
	check(err)
	for c.MigrationInFlight() {
		step()
	}
	fmt.Printf("▸ retry committed: ring flipped atomically at the commit cut to v%d %v (%d keys moved, %d dual-writes, %d forwarded requests)\n",
		c.Ring.Version(), c.Ring.Members(), c.Stats.KeysMoved, c.Stats.DualWrites, c.Stats.ForwardedRequests)

	before := fleet.TotalAcked()
	for fleet.TotalAcked() < before+uint64(fleet.Keys()) {
		step()
	}
	bad, err := fleet.CheckJustified()
	check(err)
	twoOwner, err := fleet.CheckSoleOwner()
	check(err)
	if len(bad) > 0 || len(twoOwner) > 0 {
		fmt.Printf("▸ VIOLATION: justify=%v soleOwner=%v\n", bad, twoOwner)
		os.Exit(1)
	}
	fmt.Printf("▸ cluster is live on the new ring: %d requests acked, every ack justified, every key served by its sole ring owner\n",
		fleet.TotalAcked())
}

// composedDemo narrates one composed fault-plane campaign: two fault
// domains stacked on the shared engine, every crash judged by the union of
// both domains' oracle registries.
func composedDemo(name string, mode mem.PersistMode, seed uint64) {
	seeds := []uint64{seed}
	switch name {
	case "media-reshard":
		fmt.Printf("▸ composed campaign: silent media rot planted during an elastic reshard (seed %d)\n", seed)
		res, mres, err := crashfuzz.RunMediaDuringReshard(faultplane.Spec{Seeds: seeds},
			crashfuzz.ReshardConfig{Mode: mode, Replicas: 2}, 14)
		check(err)
		fmt.Printf("▸ %d crashes fired, %d rot faults planted in restore-source slots\n", res.CrashesFired, mres.RotInjected)
		fmt.Printf("▸ %d replica repairs + %d scrub repairs; %d epochs rolled back whole, %d rolled forward\n",
			mres.ReplicaRepairs, mres.ScrubRepairs, res.RolledBack, res.RolledForward)
	case "repl-cluster":
		fmt.Printf("▸ composed campaign: hot-standby failover probed under cluster crashes (seed %d)\n", seed)
		res, pres, err := crashfuzz.RunReplUnderCluster(faultplane.Spec{Seeds: seeds, RoundsPerSeed: 24},
			crashfuzz.ClusterConfig{Mode: mode})
		check(err)
		fmt.Printf("▸ %d crashes fired, %d standby promotions probed at the crash instant\n", res.CrashesFired, pres.CrashProbes)
		fmt.Printf("▸ %d oracle promotions held digest-exact; %d refusals with nothing acknowledged\n",
			pres.OracleFailovers, pres.NoAckedAtProbe)
	case "media-repl":
		fmt.Printf("▸ composed campaign: silent media rot under hot-standby replication (seed %d)\n", seed)
		res, mres, err := crashfuzz.RunMediaUnderRepl(faultplane.Spec{Seeds: seeds},
			crashfuzz.ReplConfig{Mode: mode, Replicas: 2}, 12)
		check(err)
		fmt.Printf("▸ %d crashes fired, %d rot faults planted; %d failovers probed while the primary was down\n",
			res.CrashesFired, mres.RotInjected, res.Failovers)
		fmt.Printf("▸ %d replica repairs + %d scrub repairs; restored digests matched every recorded commit\n",
			mres.ReplicaRepairs, mres.ScrubRepairs)
	default:
		fmt.Fprintf(os.Stderr, "unknown campaign %q (want media-reshard, repl-cluster, or media-repl)\n", name)
		os.Exit(2)
	}
	fmt.Println("▸ zero oracle convictions: the gated system survived the composed schedule")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
