package crashfuzz

// Cross-domain composed campaigns: faultplane.Compose stacks a second fault
// domain onto a base campaign at its crash boundaries. The three shipped
// compositions are the engine's headline capability:
//
//   - media × reshard  — silent bit-rot is planted in the restore-source
//     backup slots of exactly the shards a reshard crash is about to
//     restore; the cut digests must stay verifiable (repair, never silent
//     divergence) while the ring still converges whole.
//   - repl × cluster   — every cluster crash is bracketed by hot-standby
//     failover probes on the victim shards, and a registry oracle holds
//     every shard's standby promotable (digest-exact, retry-deterministic)
//     after every recovery.
//   - media × repl     — bit-rot lands in the primary's restore-source
//     slots at the crash instant; the restored primary must still fold to
//     the exact restorable digest recorded the moment the committed
//     version's checkpoint landed.
//
// Each composition has a checksum-off or gate-off ablation whose conviction
// — by a named registry oracle — is asserted by the composed campaign tests.

import (
	"fmt"
	"math/rand"

	"treesls/internal/caps"
	"treesls/internal/cluster"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs/audit"
	"treesls/internal/repl"
	"treesls/internal/simclock"
)

// clusterWorld is the composition surface the cluster and reshard base
// worlds expose: the live cluster plus which shards the last injection
// crash-restored.
type clusterWorld interface {
	Cluster() *cluster.Cluster
	Victims() []int
}

// primaryWorld is the composition surface single-machine base worlds (the
// repl domain) expose.
type primaryWorld interface {
	Machine() *kernel.Machine
	Replicator() *repl.Replicator
}

// MediaOverlayResult aggregates a media overlay across a composed campaign.
type MediaOverlayResult struct {
	// RotInjected counts silent bit-rot faults planted in restore-source
	// backup slots at crash boundaries.
	RotInjected int
	// ReplicaRepairs / ScrubRepairs are folded from the victim machines:
	// with checksums on they are the mechanism that keeps the campaign
	// conviction-free.
	ReplicaRepairs uint64
	ScrubRepairs   uint64
}

// mediaOverlay plants silent bit-rot into the restore-source backup slots
// of exactly the machines the base domain is about to crash-restore — the
// highest-value instant, because recovery is what reveals latent media
// damage. It draws from its own "media" stream, so composing it changes
// nothing about the base campaign's schedule.
type mediaOverlay struct {
	// faultsPerVictim is how many rot faults to plant per victim machine
	// per crash.
	faultsPerVictim int
	res             *MediaOverlayResult
}

func (o *mediaOverlay) Name() string        { return "media" }
func (o *mediaOverlay) StreamLabel() string { return "media" }

func (o *mediaOverlay) Bind(base faultplane.World, seed uint64, rng *rand.Rand) (faultplane.OverlayWorld, error) {
	w := &mediaOverlayWorld{faults: o.faultsPerVictim, rng: rng, res: o.res}
	switch b := base.(type) {
	case clusterWorld:
		w.victims = func() []plantTarget {
			// A crashed shard recovers to the newest cut's version for it
			// (or its own durable version when the cut does not cover it) —
			// plant against THAT version, not the live committed one, so
			// every fault sits on a slot the imminent restore must read.
			cut := b.Cluster().Coord.Newest()
			var ts []plantTarget
			for _, i := range b.Victims() {
				m := b.Cluster().Shards[i].M
				v, covered := cut.VersionOf(i)
				if !covered {
					v = m.Ckpt.DurableVersion()
				}
				ts = append(ts, plantTarget{m: m, v: v})
			}
			return ts
		}
		w.all = func() []*kernel.Machine {
			var ms []*kernel.Machine
			for _, s := range b.Cluster().Shards {
				ms = append(ms, s.M)
			}
			return ms
		}
	case primaryWorld:
		w.victims = func() []plantTarget {
			m := b.Machine()
			return []plantTarget{{m: m, v: m.Ckpt.DurableVersion()}}
		}
		w.all = func() []*kernel.Machine { return []*kernel.Machine{b.Machine()} }
		// Record the restorable digest of every version the moment it
		// commits — before any media damage can land — and hold every
		// recovery to it. (The ledger's digest is not comparable here: it
		// includes eternal pages, which legitimately keep their post-crash
		// content across a restore.)
		rec := &digestRecorder{m: b.Machine(), byVer: make(map[uint64]uint64)}
		b.Machine().Ckpt.Register(rec)
		// The version committed during the base world's build predates the
		// recorder; snapshot it now, while the media is still pristine, or
		// a round-0 crash would restore to a version the oracle cannot judge.
		rec.OnCheckpoint(b.Machine().Ckpt.CommittedVersion(), nil)
		base.Oracles().Register("restored-digest", func() error {
			m := b.Machine()
			committed := m.Ckpt.CommittedVersion()
			want, ok := rec.byVer[committed]
			if !ok {
				return nil // committed before the overlay attached
			}
			if got := audit.RestorableDigest(m.Ckpt, m.Memory); got != want {
				return fmt.Errorf("restored primary digest %016x != digest %016x recorded at v%d's commit",
					got, want, committed)
			}
			return nil
		})
	default:
		return nil, fmt.Errorf("media overlay: base world exposes neither a cluster nor a primary")
	}
	return w, nil
}

// digestRecorder is a checkpoint callback that snapshots the restorable
// digest of each version as it commits, before any overlay fault can touch
// the backup media. It is the ground truth the restored-digest oracle holds
// recoveries to.
type digestRecorder struct {
	m     *kernel.Machine
	byVer map[uint64]uint64
}

func (r *digestRecorder) OnCheckpoint(version uint64, lane *simclock.Lane) {
	r.byVer[version] = audit.RestorableDigest(r.m.Ckpt, r.m.Memory)
}

func (r *digestRecorder) OnRestore(version uint64, lane *simclock.Lane) {}

// plantTarget names one imminent-restore victim: the machine plus the
// version its recovery will actually read.
type plantTarget struct {
	m *kernel.Machine
	v uint64
}

type mediaOverlayWorld struct {
	faults  int
	rng     *rand.Rand
	res     *MediaOverlayResult
	victims func() []plantTarget
	all     func() []*kernel.Machine
}

// PreCrash plants the rot: the base world computed its victim set, the
// failure has not landed yet, so the damage is exactly what the imminent
// restore will read.
func (w *mediaOverlayWorld) PreCrash() error {
	for _, t := range w.victims() {
		w.plant(t.m, t.v)
	}
	return nil
}

// plant rots w.faults restore-source slots of m's backup tree, selected at
// version v — the version the imminent recovery reads. Targeting the exact
// slot a clean restore would read makes every fault land on the recovery
// path, where it is verified (and, gated, repaired) instead of lying latent
// until it poisons a later digest announcement. Only real backup copies of
// non-eternal PMOs are hit — the slots the §8 replica tier covers — so that
// with checksums on every fault is detectable AND repairable: rot in a
// version-zero runtime slot or an eternal page would force the restore to
// degrade, which legitimately changes the recovered state and would convict
// the gated system for doing exactly what its contract promises.
func (w *mediaOverlayWorld) plant(m *kernel.Machine, v uint64) {
	var cps []*caps.CkptPage
	m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
		// Mirror the digest/restore walk: only the latest committed
		// snapshot's live (non-stillborn) pages are restorable state. Rot
		// anywhere else never meets a verified read — it would be damage
		// the contract does not cover.
		snap, _ := r.LatestCommitted(v)
		ps, ok := snap.(*caps.PMOSnap)
		if !ok || ps.Type == caps.PMOEternal {
			return
		}
		ps.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
			if cp.Born <= v {
				cps = append(cps, cp)
			}
			return true
		})
	})
	var eligible []mem.PageID
	for _, cp := range cps {
		si := restoreSlot(cp, v)
		if si < 0 || cp.Ver[si] == 0 || cp.Page[si].IsNil() || cp.Page[si].Kind != mem.KindNVM {
			continue
		}
		eligible = append(eligible, cp.Page[si])
	}
	if len(eligible) == 0 {
		return
	}
	for i := 0; i < w.faults; i++ {
		pg := eligible[w.rng.Intn(len(eligible))]
		off := w.rng.Intn(mem.PageSize - 256)
		n := 8 + w.rng.Intn(120)
		m.Memory.InjectRot(pg, off, n, w.rng.Uint64())
		w.res.RotInjected++
	}
}

// BeforeRound scrubs every machine, healing any rot a restore did not read
// (a latent slot) before faults can pile up into a double fault no replica
// can repair. With checksums disabled the scrub cannot see rot — exactly
// the ablation's point.
func (w *mediaOverlayWorld) BeforeRound(round int) error {
	for _, m := range w.all() {
		if !m.Crashed() {
			m.Scrub()
		}
	}
	return nil
}

// Finish folds the repair counters from the machines the overlay damaged.
func (w *mediaOverlayWorld) Finish() error {
	for _, m := range w.all() {
		w.res.ReplicaRepairs += m.Ckpt.Stats.ReplicaRepair
		w.res.ScrubRepairs += m.Ckpt.Stats.ScrubRepairs
	}
	return nil
}

// ReplProbeResult aggregates a repl overlay across a composed campaign.
type ReplProbeResult struct {
	// CrashProbes counts failover probes run at crash instants (PreCrash);
	// OracleFailovers counts promotions driven by the registry oracle after
	// recoveries.
	CrashProbes     int
	OracleFailovers int
	// NoAckedAtProbe counts probe instants with no acknowledged checkpoint,
	// where promotion correctly refused.
	NoAckedAtProbe int
}

// replOverlay brackets every cluster crash with hot-standby failover probes:
// at the crash instant it promotes each victim shard's standby (the ledger
// is the standby's own durable state — it survives the primary's failure),
// and its registry oracle holds every shard's standby promotable after every
// recovery. The base cluster must have been built with Replicate on.
type replOverlay struct {
	res *ReplProbeResult
}

func (o *replOverlay) Name() string        { return "repl" }
func (o *replOverlay) StreamLabel() string { return "repl" }

func (o *replOverlay) Bind(base faultplane.World, seed uint64, rng *rand.Rand) (faultplane.OverlayWorld, error) {
	b, ok := base.(clusterWorld)
	if !ok {
		return nil, fmt.Errorf("repl overlay: base world exposes no cluster")
	}
	replicated := false
	for _, s := range b.Cluster().Shards {
		if s.Rep != nil {
			replicated = true
		}
	}
	if !replicated {
		return nil, fmt.Errorf("repl overlay: cluster has no replicators (build it with Replicate)")
	}
	w := &replOverlayWorld{c: b, res: o.res}
	base.Oracles().Register("standby-promotable", w.checkPromotable)
	return w, nil
}

type replOverlayWorld struct {
	c   clusterWorld
	res *ReplProbeResult
}

// PreCrash probes failover on each victim shard at the crash instant — the
// moment a real deployment would promote.
func (w *replOverlayWorld) PreCrash() error {
	for _, i := range w.c.Victims() {
		s := w.c.Cluster().Shards[i]
		if s.Rep == nil {
			continue
		}
		w.res.CrashProbes++
		if err := w.probe(s); err != nil {
			return fmt.Errorf("shard %d failover at crash instant: %w", i, err)
		}
	}
	return nil
}

// checkPromotable is the overlay's registry oracle: after every recovery —
// whatever the crash target — every shard's standby must still promote to
// exactly the digest the shard's ledger recorded, deterministically under
// retry. Cluster recovery must never invalidate a standby.
func (w *replOverlayWorld) checkPromotable() error {
	for i, s := range w.c.Cluster().Shards {
		if s.Rep == nil {
			continue
		}
		w.res.OracleFailovers++
		if err := w.probe(s); err != nil {
			return fmt.Errorf("shard %d standby after recovery: %w", i, err)
		}
	}
	return nil
}

// probe runs the replication contract against one shard's standby at the
// shard's current instant.
func (w *replOverlayWorld) probe(s *cluster.Shard) error {
	promoted, err := probeStandby(s.Rep, s.M.Now())
	if !promoted && err == nil {
		w.res.NoAckedAtProbe++
	}
	return err
}

func (w *replOverlayWorld) Finish() error { return nil }

// RunMediaDuringReshard composes silent media damage onto the reshard crash
// campaign: every reshard crash's victim shards get faultsPerVictim rot
// faults in their restore-source slots immediately before the failure lands.
func RunMediaDuringReshard(spec faultplane.Spec, cfg ReshardConfig, faultsPerVictim int) (ReshardResult, MediaOverlayResult, error) {
	var res ReshardResult
	var mres MediaOverlayResult
	st, err := runDomain(spec, reshardRounds, cfg.domain(&res),
		&mediaOverlay{faultsPerVictim: faultsPerVictim, res: &mres})
	res.CrashesFired, res.Recoveries = st.Injections, st.Recoveries
	return res, mres, err
}

// RunReplUnderCluster composes hot-standby failover probing onto the cluster
// crash campaign. The cluster is forced replicated; cfg.Ungated selects the
// conviction baseline.
func RunReplUnderCluster(spec faultplane.Spec, cfg ClusterConfig) (ClusterResult, ReplProbeResult, error) {
	cfg.Replicate = true
	var res ClusterResult
	var pres ReplProbeResult
	st, err := runDomain(spec, clusterRounds, cfg.domain(&res), &replOverlay{res: &pres})
	res.CrashesFired, res.Recoveries = st.Injections, st.Recoveries
	return res, pres, err
}

// RunMediaUnderRepl composes silent media damage onto the replication crash
// campaign: rot lands in the primary's restore-source slots at each crash
// instant, and the restored primary must refold to the restorable digest
// recorded at the committed version's checkpoint.
func RunMediaUnderRepl(spec faultplane.Spec, cfg ReplConfig, faultsPerVictim int) (ReplResult, MediaOverlayResult, error) {
	var res ReplResult
	var mres MediaOverlayResult
	st, err := runDomain(spec, replRounds, cfg.domain(&res),
		&mediaOverlay{faultsPerVictim: faultsPerVictim, res: &mres})
	res.CrashesFired, res.Restores = st.Injections, st.Recoveries
	return res, mres, err
}
