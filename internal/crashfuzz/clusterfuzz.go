package crashfuzz

// Cluster crash campaign: a multi-shard fleet runs through the consistent-
// hash router while failures — whole-cluster power loss, single-shard
// crashes, coordinator loss — are injected at randomized cluster-event
// indices. Because the cut protocol advances one micro-action per event,
// the injections land on every protocol boundary: mid-route (traffic in
// flight, no round), shard-prepared-but-uncut (a prepare reported, the cut
// not yet announced), and mid-cut-announce (announced but not fully
// published/released). The oracle after every recovery is the cluster-wide
// external-synchrony invariant: recovery lands on a previously announced
// cut whose digests verify, no gate has released beyond the cut, and no
// client holds an acknowledgement the recovered keyspace cannot justify.

import (
	"errors"
	"fmt"
	"math/rand"

	"treesls/internal/cluster"
	"treesls/internal/faultplane"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// ClusterConfig parameterizes a cluster crash campaign.
type ClusterConfig struct {
	// Mode is the persistence model of every shard.
	Mode mem.PersistMode
	// Seeds are the cluster/damage seeds; each seed gets its own cluster.
	Seeds []uint64
	// Shards is the cluster size (default 2).
	Shards int
	// CrashesPerSeed is how many injections to attempt per seed (default
	// 24, below the shared default: every cluster round boots Shards
	// whole machines through an up-to-800-micro-step window, so the
	// shared 40 would roughly double the campaign's CI cost for coverage
	// the target/boundary rotation already reaches by 24).
	CrashesPerSeed int
	// EventWindow bounds the random event countdown (default 40: cluster
	// events — cut-protocol micro-actions — are far sparser than NVM
	// persistence events, and a 96-event window would routinely outlast
	// the step budget, converting boundary crashes into expired
	// countdowns).
	EventWindow int
	// StepsPerCrash bounds micro-steps while waiting for a countdown to
	// elapse (default 800: a micro-step is one packet hop or one protocol
	// action across the whole cluster, so the window needs many more of
	// them than a single machine's workload does).
	StepsPerCrash int
	// Clients, KeysPerClient, Window shape the fleet (defaults 2, 2, 2).
	Clients       int
	KeysPerClient int
	Window        int
	// Replicate attaches a per-shard replicator streaming each shard's
	// checkpoints to a hot standby (used by composed campaigns that probe
	// failover under cluster crashes).
	Replicate bool
	// Ungated drops the shards' extsync gates — the unsafe ablation
	// baseline the composed conviction tests use. The justification oracle
	// then convicts the first acknowledgement a recovery cannot cover.
	Ungated bool
}

func (c *ClusterConfig) fill() {
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.CrashesPerSeed == 0 {
		c.CrashesPerSeed = 24
	}
	if c.EventWindow == 0 {
		c.EventWindow = 40
	}
	if c.StepsPerCrash == 0 {
		c.StepsPerCrash = 800
	}
	if c.Clients == 0 {
		c.Clients = 2
	}
	if c.KeysPerClient == 0 {
		c.KeysPerClient = 2
	}
	if c.Window == 0 {
		c.Window = 2
	}
}

// ClusterResult aggregates a cluster crash campaign. A returned result
// always reflects zero invariant violations — the first violation aborts
// the campaign with an error.
type ClusterResult struct {
	// CrashesFired / Recoveries count injections and completed recoveries.
	CrashesFired int
	Recoveries   int
	// PowerCrashes / ShardCrashes / CoordCrashes break injections down by
	// target.
	PowerCrashes int
	ShardCrashes int
	CoordCrashes int
	// MidRoute / PreparedUncut / MidAnnounce classify the protocol
	// boundary each crash landed on.
	MidRoute      int
	PreparedUncut int
	MidAnnounce   int
	// Acked / Retransmits / Released across all seeds.
	Acked       uint64
	Retransmits uint64
	Released    uint64
	// Rounds completed and RollForwards performed across all seeds.
	Rounds       uint64
	RollForwards uint64
	// AuditChecks across all shards and seeds.
	AuditChecks uint64
}

// clusterFuzzer is the per-seed world: one cluster plus its fleet.
type clusterFuzzer struct {
	cfg   ClusterConfig
	rng   *rand.Rand
	res   *ClusterResult
	c     *cluster.Cluster
	fleet *cluster.Fleet

	// lastVictims records which shards the last injection crash-restored
	// (all of them for a power failure); overlays target faults there.
	lastVictims []int

	oracles *faultplane.Registry
	faultplane.PreCrashHooks
}

// clusterDomain adapts the cluster campaign to the fault-plane engine.
type clusterDomain struct {
	cfg ClusterConfig
	res *ClusterResult
}

func (d *clusterDomain) Name() string        { return "cluster" }
func (d *clusterDomain) StreamLabel() string { return "" }

func (d *clusterDomain) Build(seed uint64, rng *rand.Rand) (faultplane.World, error) {
	return newClusterFuzzer(d.cfg, seed, rng, d.res)
}

// RunCluster executes the campaign.
func RunCluster(cfg ClusterConfig) (ClusterResult, error) {
	cfg.fill()
	var res ClusterResult
	st, err := faultplane.RunCampaign(
		faultplane.Spec{Seeds: cfg.Seeds, RoundsPerSeed: cfg.CrashesPerSeed},
		&clusterDomain{cfg: cfg, res: &res})
	res.CrashesFired = st.Injections
	res.Recoveries = st.Recoveries
	return res, err
}

// Finish folds the seed's traffic and protocol counters.
func (f *clusterFuzzer) Finish() error {
	res := f.res
	res.Acked += f.fleet.TotalAcked()
	res.Retransmits += f.fleet.Retransmits
	for _, s := range f.c.Shards {
		if s.Drv != nil {
			res.Released += s.Drv.Stats.Delivered
		}
		if s.M.Auditor != nil {
			res.AuditChecks += s.M.Auditor.Checks
		}
		if err := s.M.Alloc.CheckInvariants(); err != nil {
			return err
		}
	}
	res.Rounds += f.c.Stats.Rounds
	res.RollForwards += f.c.Stats.RollForwards
	return nil
}

// Crash targets: 0 = power, 1 = coordinator, 2+i = shard i. clusterTarget
// maps one to its cluster.Fleet.Fail target.
func clusterTarget(target, shards int) int {
	switch target {
	case 0:
		return cluster.TargetPower
	case 1:
		return cluster.TargetCoord
	default:
		return (target - 2) % shards
	}
}

func (f *clusterFuzzer) pickTarget() int {
	return f.rng.Intn(2 + f.c.Config().Shards)
}

func newClusterFuzzer(cfg ClusterConfig, seed uint64, rng *rand.Rand, res *ClusterResult) (*clusterFuzzer, error) {
	c, err := cluster.New(cluster.Config{
		Shards:    cfg.Shards,
		Gated:     !cfg.Ungated,
		Persist:   cfg.Mode,
		Seed:      seed,
		Audit:     true,
		Replicate: cfg.Replicate,
	})
	if err != nil {
		return nil, err
	}
	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients:       cfg.Clients,
		KeysPerClient: cfg.KeysPerClient,
		Requests:      0, // unbounded: the campaign decides when to stop
		Window:        cfg.Window,
		ValueBytes:    32,
		Seed:          int64(seed),
	})
	if err != nil {
		return nil, err
	}
	f := &clusterFuzzer{cfg: cfg, rng: rng, res: res, c: c, fleet: fleet}
	f.registerOracles()
	return f, nil
}

// registerOracles wires the cluster-wide external-synchrony invariant set
// in its legacy check order: cut digests, release coverage, acknowledgement
// justification, client FIFO, duplicate acks, per-shard audit.
func (f *clusterFuzzer) registerOracles() {
	f.oracles = faultplane.NewRegistry()
	f.oracles.Register("cut-verified", func() error {
		return f.c.VerifyCut(f.c.Coord.Newest())
	})
	f.oracles.Register("released-covered", f.c.ReleasedCovered)
	f.oracles.Register("extsync-justified", func() error {
		bad, err := f.fleet.CheckJustified()
		if err != nil {
			return err
		}
		if len(bad) > 0 {
			return fmt.Errorf("released-but-uncovered response: %s", bad[0])
		}
		return nil
	})
	f.oracles.Register("client-fifo", func() error {
		if n := len(f.fleet.Violations); n > 0 {
			return fmt.Errorf("client FIFO violation: %s", f.fleet.Violations[0])
		}
		return nil
	})
	f.oracles.Register("dup-acks", func() error {
		if f.fleet.DupAcks > 0 {
			return fmt.Errorf("%d duplicate acknowledgements after recovery", f.fleet.DupAcks)
		}
		return nil
	})
	f.oracles.Register("shard-audit", func() error {
		for i, s := range f.c.Shards {
			if s.M.Auditor != nil {
				if la := s.M.LastAudit; !la.Ok() {
					return fmt.Errorf("shard %d audit at %s: %d violation(s), first: %s",
						i, la.Where, len(la.Violations), la.Violations[0])
				}
			}
		}
		return nil
	})
}

// Oracles returns the cluster domain's registry.
func (f *clusterFuzzer) Oracles() *faultplane.Registry { return f.oracles }

// Now reports simulated time for engine trace instants.
func (f *clusterFuzzer) Now() simclock.Time { return f.c.Shards[0].M.Now() }

// Cluster exposes the live cluster to composition overlays.
func (f *clusterFuzzer) Cluster() *cluster.Cluster { return f.c }

// Victims reports the shard indices the last injection crash-restored.
func (f *clusterFuzzer) Victims() []int { return f.lastVictims }

// classify records which protocol boundary the crash landed on.
func (f *clusterFuzzer) classify(res *ClusterResult) {
	switch f.c.CurrentPhase() {
	case cluster.PhaseAnnounce, cluster.PhasePublish, cluster.PhaseRelease:
		res.MidAnnounce++
		return
	case cluster.PhasePrepare:
		for _, s := range f.c.Shards {
			if s.M.Ckpt.PreparedVersion() != 0 {
				res.PreparedUncut++
				return
			}
		}
	}
	res.MidRoute++
}

// Round rotates the crash target rng-driven (so the interleaving of targets
// and boundaries varies per seed), then waits out a random event countdown
// and injects; the engine runs the oracle registry next.
func (f *clusterFuzzer) Round(rng *rand.Rand, round int) (bool, error) {
	target := clusterTarget(f.pickTarget(), f.c.Config().Shards)
	fired, err := f.crashOnce(target)
	if err != nil {
		return fired, fmt.Errorf("%s: %w", cluster.TargetName(target), attributeCutDigest(err))
	}
	return fired, nil
}

// attributeCutDigest turns a typed cut-digest mismatch detected inside the
// recovery procedure itself (PowerFail verifies the cut before handing the
// cluster back) into a conviction of the registered "cut-verified" oracle:
// it is the same invariant the registry re-checks after every round, just
// caught one step earlier.
func attributeCutDigest(err error) error {
	var de *cluster.CutDigestError
	if errors.As(err, &de) {
		return &faultplane.Conviction{Oracle: "cut-verified", Err: err}
	}
	return err
}

// advanceToEvent drives the cluster with Fleet.Advance until its event
// counter reaches deadline, within a budget of steps micro-steps; fired
// reports whether the deadline was reached (a crash is due).
func advanceToEvent(fleet *cluster.Fleet, c *cluster.Cluster, deadline uint64, steps int) (fired bool, err error) {
	for step := 0; step < steps; step++ {
		if c.Events() >= deadline {
			return true, nil
		}
		if _, err := fleet.Advance(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// crashOnce waits a random event countdown, then injects the failure and
// runs the recovery procedure for target, a cluster.Fleet.Fail target.
// Oracle checks are the engine's job (or the caller's, for the one-shot
// entry point).
func (f *clusterFuzzer) crashOnce(target int) (bool, error) {
	res := f.res
	deadline := f.c.Events() + uint64(1+f.rng.Intn(f.cfg.EventWindow))
	if fired, err := advanceToEvent(f.fleet, f.c, deadline, f.cfg.StepsPerCrash); !fired || err != nil {
		return false, err
	}
	f.classify(res)
	f.lastVictims = f.c.Victims(target)
	if err := f.RunPreCrash(); err != nil {
		return false, err
	}
	switch target {
	case cluster.TargetPower:
		res.PowerCrashes++
	case cluster.TargetCoord:
		res.CoordCrashes++
	default:
		res.ShardCrashes++
	}
	return true, f.fleet.Fail(target)
}

// ClusterOneShot runs a single parameterized cluster crash injection — the
// entry point of FuzzClusterCrashEvent. Boot a gated cluster+fleet with the
// given seed, wait eventK cluster events, inject the failure against the
// fuzzed target, recover, and apply the oracle. A run where the countdown
// never elapses within the step budget is a valid (uninteresting) input.
// (Historical quirk, preserved: the fuzzed countdown gates a second,
// rng-drawn countdown inside crashOnce.)
func ClusterOneShot(mode mem.PersistMode, seed, eventK uint64, target uint8, steps uint16) error {
	cfg := ClusterConfig{Mode: mode}
	cfg.fill()
	var res ClusterResult
	f, err := newClusterFuzzer(cfg, seed, faultplane.Stream(seed, ""), &res)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	deadline := f.c.Events() + eventK%uint64(cfg.EventWindow) + 1
	if fired, err := advanceToEvent(f.fleet, f.c, deadline, int(steps)%cfg.StepsPerCrash+1); !fired || err != nil {
		return err
	}
	fired, err := f.crashOnce(clusterTarget(int(target)%(2+cfg.Shards), cfg.Shards))
	if !fired || err != nil {
		return err
	}
	_, err = f.oracles.Check()
	return err
}
