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

// ClusterConfig holds the cluster domain's knobs.
type ClusterConfig struct {
	// Mode is the persistence model of every shard.
	Mode mem.PersistMode
	// Shards is the cluster size (default 2).
	Shards int
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

// clusterRounds is the cluster domain's default rounds per seed, below the
// shared default: every cluster round boots Shards whole machines through
// an up-to-800-micro-step window, so the shared 40 would roughly double the
// campaign's CI cost for coverage the target/boundary rotation already
// reaches by 24.
const clusterRounds = 24

func (c *ClusterConfig) fill() {
	if c.Shards == 0 {
		c.Shards = 2
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

// domain is the cluster campaign's fault-plane domain.
func (cfg ClusterConfig) domain(res *ClusterResult) domain {
	cfg.fill()
	return domain{"cluster", "", func(seed uint64, rng *rand.Rand) (faultplane.World, error) {
		return newClusterFuzzer(cfg, seed, rng, res)
	}}
}

// RunCluster executes the campaign (spec.RoundsPerSeed defaults to 24).
func RunCluster(spec faultplane.Spec, cfg ClusterConfig) (ClusterResult, error) {
	var res ClusterResult
	st, err := runDomain(spec, clusterRounds, cfg.domain(&res))
	res.CrashesFired, res.Recoveries = st.Injections, st.Recoveries
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
	f.oracles.Register("extsync-justified", justified(&f.fleet.ClientCore))
	f.oracles.Register("client-fifo", clientFIFO(&f.fleet.ClientCore))
	f.oracles.Register("dup-acks", noDupAcks(&f.fleet.ClientCore))
	f.oracles.Register("shard-audit", shardAudit(f.c))
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
func (f *clusterFuzzer) classify() {
	res := f.res
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

// Round draws the crash target (so the interleaving of targets and
// boundaries varies per seed) and a cluster-event countdown, then injects;
// the engine runs the oracle registry next.
func (f *clusterFuzzer) Round(rng *rand.Rand, round int) (bool, error) {
	shards := f.c.Config().Shards
	target := clusterTarget(f.rng.Intn(2+shards), shards)
	return f.inject(target, uint64(1+f.rng.Intn(f.cfg.EventWindow)), f.cfg.StepsPerCrash)
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

// inject is the cluster domain's one injection path: drive the cluster up
// to n micro-steps until k more cluster events have elapsed, then inject
// the failure and run the recovery procedure for target, a
// cluster.Fleet.Fail target. Errors name the target, and a cut-digest
// mismatch convicts "cut-verified".
func (f *clusterFuzzer) inject(target int, k uint64, n int) (fired bool, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s: %w", cluster.TargetName(target), attributeCutDigest(err))
		}
	}()
	if fired, err = advanceToEvent(f.fleet, f.c, f.c.Events()+k, n); !fired || err != nil {
		return false, err
	}
	f.classify()
	f.lastVictims = f.c.Victims(target)
	if err := f.RunPreCrash(); err != nil {
		return false, err
	}
	switch target {
	case cluster.TargetPower:
		f.res.PowerCrashes++
	case cluster.TargetCoord:
		f.res.CoordCrashes++
	default:
		f.res.ShardCrashes++
	}
	return true, f.fleet.Fail(target)
}

// ClusterOneShot runs a single parameterized cluster crash injection — the
// entry point of FuzzClusterCrashEvent: boot a gated cluster+fleet with the
// given seed, then take the campaign's injection path against the fuzzed
// target with a countdown of eventK cluster events and a budget of steps
// micro-steps. A countdown that never elapses within the step budget is a
// valid (uninteresting) input.
func ClusterOneShot(mode mem.PersistMode, seed, eventK uint64, target uint8, steps uint16) error {
	cfg := ClusterConfig{Mode: mode}
	cfg.fill()
	f, err := newClusterFuzzer(cfg, seed, faultplane.Stream(seed, ""), &ClusterResult{})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	fired, err := f.inject(clusterTarget(int(target)%(2+cfg.Shards), cfg.Shards),
		eventK%uint64(cfg.EventWindow)+1, int(steps)%cfg.StepsPerCrash+1)
	return judge(f, fired, err)
}
