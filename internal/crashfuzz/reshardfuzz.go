package crashfuzz

// Reshard crash campaign: a gated cluster runs elastic scale-out and
// scale-in epochs under fleet traffic while failures — power loss, a source
// shard, the joining/leaving destination, or the coordinator that owns the
// migration plan — are injected at the epoch's protocol boundaries. The
// boundaries are walked deterministically per injection (mid-stream,
// keys-installed-but-uncut, mid-ring-announce, post-commit) with rng jitter
// inside each window, so every crash class is provably exercised. The
// oracle after every recovery: the cluster sits on a whole ring (exactly
// the old one if the crash preceded the commit announcement, exactly the
// new one otherwise — never a mix), the newest cut verifies, no gate
// released beyond the cut, no client holds an unjustifiable
// acknowledgement, and no acknowledged request was served by a shard the
// ring did not point at.

import (
	"fmt"
	"math/rand"

	"treesls/internal/cluster"
	"treesls/internal/faultplane"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// Crash classes a reshard injection lands on.
const (
	classMidStream      = iota // scanning/streaming: plan forming, keys in flight
	classInstalledUncut        // commit round open, keys at dest, cut not announced
	classMidAnnounce           // ring change announced, publish/release unfinished
	classPostCommit            // epoch complete: a plain crash on the new ring
	classCount
)

var classNames = [classCount]string{"mid-stream", "installed-uncut", "mid-announce", "post-commit"}

// ReshardConfig holds the reshard domain's knobs.
type ReshardConfig struct {
	// Mode is the persistence model of every shard.
	Mode mem.PersistMode
	// Shards is the starting cluster size (default 3).
	Shards int
	// StepsPerCrash bounds micro-steps while driving an epoch to the
	// desired crash class (default 4000: reaching a late class like
	// mid-announce means marching an entire migration through scan and
	// stream first, micro-step by micro-step).
	StepsPerCrash int
	// Clients, KeysPerClient, Window shape the fleet (defaults 2, 2, 2).
	Clients       int
	KeysPerClient int
	Window        int
	// Replicas keeps redundant backup copies on every shard;
	// DisableChecksums runs the media ablation baseline. Used by composed
	// campaigns that stack media faults on reshard epochs.
	Replicas         int
	DisableChecksums bool
}

// reshardRounds is the reshard domain's default rounds (crash-injected
// epochs) per seed: an epoch is the domain's whole unit of work — scan,
// stream, commit, announce, plus recovery — so 8 epochs already cover each
// of the 4 crash classes twice per seed; the shared 40 would multiply the
// most expensive campaign's CI cost fivefold.
const reshardRounds = 8

func (c *ReshardConfig) fill() {
	if c.Shards == 0 {
		c.Shards = 3
	}
	if c.StepsPerCrash == 0 {
		c.StepsPerCrash = 4000
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

// ReshardResult aggregates a reshard crash campaign. A returned result
// always reflects zero invariant violations — the first violation aborts
// the campaign with an error.
type ReshardResult struct {
	// CrashesFired / Recoveries count injections and completed recoveries.
	CrashesFired int
	Recoveries   int
	// Adds / Removes break the injected epochs down by direction.
	Adds    int
	Removes int
	// MidStream / InstalledUncut / MidAnnounce / PostCommit classify the
	// boundary each crash landed on.
	MidStream      int
	InstalledUncut int
	MidAnnounce    int
	PostCommit     int
	// PowerCrashes / CoordCrashes / SourceCrashes / DestCrashes break
	// injections down by target.
	PowerCrashes  int
	CoordCrashes  int
	SourceCrashes int
	DestCrashes   int
	// RolledBack / RolledForward count epochs that converged to the old
	// ring and the new one.
	RolledBack    int
	RolledForward int
	// Migrations / MigrationsAborted / KeysMoved across all seeds, from
	// the clusters' own stats.
	Migrations        uint64
	MigrationsAborted uint64
	KeysMoved         uint64
	// Acked across all seeds.
	Acked uint64
}

// reshardFuzzer is the per-seed world: one elastic cluster plus its fleet.
type reshardFuzzer struct {
	cfg   ReshardConfig
	rng   *rand.Rand
	res   *ReshardResult
	c     *cluster.Cluster
	fleet *cluster.Fleet

	// Per-round oracle context, stashed by Round at crash time: the ring
	// the recovery must converge to is fixed the instant the failure
	// lands, not when the oracle runs.
	wantForward            bool
	oldV, newV             uint64
	oldMembers, newMembers []int

	// lastVictims records which shards the last injection crash-restored;
	// overlays target faults there.
	lastVictims []int

	oracles *faultplane.Registry
	faultplane.PreCrashHooks
}

// domain is the reshard campaign's fault-plane domain.
func (cfg ReshardConfig) domain(res *ReshardResult) domain {
	cfg.fill()
	return domain{"reshard", "", func(seed uint64, rng *rand.Rand) (faultplane.World, error) {
		return newReshardFuzzer(cfg, seed, rng, res)
	}}
}

// RunReshard executes the campaign (spec.RoundsPerSeed defaults to 8).
func RunReshard(spec faultplane.Spec, cfg ReshardConfig) (ReshardResult, error) {
	var res ReshardResult
	st, err := runDomain(spec, reshardRounds, cfg.domain(&res))
	res.CrashesFired, res.Recoveries = st.Injections, st.Recoveries
	return res, err
}

// Finish folds the seed's traffic and migration counters.
func (f *reshardFuzzer) Finish() error {
	res := f.res
	res.Acked += f.fleet.TotalAcked()
	res.Migrations += f.c.Stats.Migrations
	res.MigrationsAborted += f.c.Stats.MigrationsAborted
	res.KeysMoved += f.c.Stats.KeysMoved
	for _, s := range f.c.Shards {
		if err := s.M.Alloc.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// Crash targets: 0 = power, 1 = coordinator, 2 = a source shard, 3 = the
// epoch's destination (the joining or leaving shard).
const (
	reshardTargetPower = iota
	reshardTargetCoord
	reshardTargetSource
	reshardTargetDest
	reshardTargetCount
)

var reshardTargetNames = [reshardTargetCount]string{"power", "coord", "source", "dest"}

// failTarget maps a reshard crash target to its cluster.Fleet.Fail target.
// The source is a shard that held keys before the epoch: the first old
// member that is not the destination.
func failTarget(target int, oldMembers []int, dest int) int {
	switch target {
	case reshardTargetPower:
		return cluster.TargetPower
	case reshardTargetCoord:
		return cluster.TargetCoord
	case reshardTargetSource:
		src := oldMembers[0]
		if src == dest && len(oldMembers) > 1 {
			src = oldMembers[1]
		}
		return src
	default:
		return dest
	}
}

func newReshardFuzzer(cfg ReshardConfig, seed uint64, rng *rand.Rand, res *ReshardResult) (*reshardFuzzer, error) {
	c, err := cluster.New(cluster.Config{
		Shards:           cfg.Shards,
		Gated:            true,
		Persist:          cfg.Mode,
		Seed:             seed,
		Audit:            true,
		Replicas:         cfg.Replicas,
		DisableChecksums: cfg.DisableChecksums,
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
	f := &reshardFuzzer{cfg: cfg, rng: rng, res: res, c: c, fleet: fleet}
	f.registerOracles()
	return f, nil
}

// registerOracles wires the reshard invariant set in its legacy check
// order: whole-ring convergence, migration settlement, cut digests, release
// coverage, acknowledgement justification, sole ownership, client FIFO,
// duplicate acks — then the per-shard state-digest audit.
func (f *reshardFuzzer) registerOracles() {
	f.oracles = faultplane.NewRegistry()
	f.oracles.Register("ring-convergence", func() error {
		if f.wantForward {
			if err := checkRing(f.c, f.newV, f.newMembers); err != nil {
				return fmt.Errorf("post-announce crash did not roll forward: %w", err)
			}
			return nil
		}
		if err := checkRing(f.c, f.oldV, f.oldMembers); err != nil {
			return fmt.Errorf("pre-announce crash did not roll back whole: %w", err)
		}
		return nil
	})
	f.oracles.Register("migration-settled", func() error {
		if f.c.MigrationInFlight() {
			return fmt.Errorf("migration still in flight after recovery")
		}
		return nil
	})
	f.oracles.Register("cut-verified", func() error {
		return f.c.VerifyCut(f.c.Coord.Newest())
	})
	f.oracles.Register("released-covered", f.c.ReleasedCovered)
	f.oracles.Register("extsync-justified", justified(&f.fleet.ClientCore))
	f.oracles.Register("sole-owner", func() error {
		twoOwner, err := f.fleet.CheckSoleOwner()
		if err != nil {
			return err
		}
		if len(twoOwner) > 0 {
			return fmt.Errorf("two-owner serve: %s", twoOwner[0])
		}
		return nil
	})
	f.oracles.Register("client-fifo", clientFIFO(&f.fleet.ClientCore))
	f.oracles.Register("dup-acks", noDupAcks(&f.fleet.ClientCore))
	f.oracles.Register("shard-audit", shardAudit(f.c))
}

// Oracles returns the reshard domain's registry.
func (f *reshardFuzzer) Oracles() *faultplane.Registry { return f.oracles }

// Now reports simulated time for engine trace instants.
func (f *reshardFuzzer) Now() simclock.Time { return f.c.Shards[0].M.Now() }

// Cluster exposes the live cluster to composition overlays.
func (f *reshardFuzzer) Cluster() *cluster.Cluster { return f.c }

// Victims reports the shard indices the last injection crash-restored.
func (f *reshardFuzzer) Victims() []int { return f.lastVictims }

// classOf maps the live migration status to a crash class.
func classOf(st cluster.MigrationStatus) int {
	switch {
	case !st.Active:
		return classPostCommit
	case st.Announced:
		return classMidAnnounce
	case st.Phase == cluster.MigCommit:
		return classInstalledUncut
	default:
		return classMidStream
	}
}

// Round runs one crash-injected epoch. The crash class rotates with the
// round index so every boundary is exercised; the target rotates against it
// rng-driven so (class, target) pairs interleave across rounds and seeds.
// The epoch is a scale-out or scale-in, keeping the membership between 2
// and Shards+2 so both directions keep occurring. The engine runs the
// oracle registry — including whole-ring convergence — after the
// injection.
func (f *reshardFuzzer) Round(rng *rand.Rand, round int) (bool, error) {
	class := round % classCount
	target := f.rng.Intn(reshardTargetCount)
	if err := f.oneEpoch(class, target); err != nil {
		return false, fmt.Errorf("%s, %s: %w", classNames[class], reshardTargetNames[target], attributeCutDigest(err))
	}
	return true, nil
}

// oneEpoch opens an epoch on an idle protocol, drives it to the
// requested crash class (with rng jitter inside the class window), and
// fails target there.
func (f *reshardFuzzer) oneEpoch(class, target int) error {
	// Recovery can leave a re-driven round in flight; an epoch only opens
	// on an idle protocol.
	for step := 0; f.c.CurrentPhase() != cluster.PhaseIdle; step++ {
		if step >= f.cfg.StepsPerCrash {
			return fmt.Errorf("round never drained to idle")
		}
		if _, err := f.fleet.Advance(); err != nil {
			return err
		}
	}
	members := f.c.Ring.Members()
	add := f.rng.Intn(2) == 0
	if len(members) <= 2 {
		add = true
	} else if len(members) >= f.cfg.Shards+2 {
		add = false
	}
	victim := -1
	if !add {
		victim = members[f.rng.Intn(len(members))]
	}
	dest, err := f.openEpoch(add, victim)
	if err != nil {
		return err
	}

	// Drive to the crash class. Every class is reachable: an epoch starts
	// in MigScan and marches scan -> stream -> commit -> announce -> done.
	reached := false
	for step := 0; step < f.cfg.StepsPerCrash; step++ {
		if classOf(f.c.MigrationStatus()) == class {
			reached = true
			break
		}
		if _, err := f.fleet.Advance(); err != nil {
			return err
		}
	}
	if !reached {
		return fmt.Errorf("crash class never reached within %d steps", f.cfg.StepsPerCrash)
	}
	// Jitter inside the class window so the crash lands on varying
	// micro-actions, not always the window's first.
	for f.rng.Intn(3) != 0 && classOf(f.c.MigrationStatus()) == class {
		if _, err := f.fleet.Advance(); err != nil {
			return err
		}
	}
	return f.failAt(target, dest)
}

// openEpoch opens a scale-out epoch (add) or a scale-in epoch retiring
// victim, and records both rings a recovery may converge to. It returns
// the epoch's destination: the joining or the leaving shard.
func (f *reshardFuzzer) openEpoch(add bool, victim int) (int, error) {
	res := f.res
	oldV, oldMembers := f.c.Ring.Version(), f.c.Ring.Members()
	dest := victim
	var err error
	if add {
		dest, err = f.c.StartAddShard()
	} else {
		err = f.c.StartRemoveShard(victim)
	}
	if err != nil {
		return 0, err
	}
	st := f.c.MigrationStatus()
	if st.Add {
		res.Adds++
	} else {
		res.Removes++
	}
	f.oldV, f.oldMembers = oldV, oldMembers
	f.newV, f.newMembers = st.NewRing, ringAfter(oldMembers, dest, st.Add)
	return dest, nil
}

// failAt fails target wherever the open epoch now stands, after stashing
// the convergence obligation for the oracles: it is fixed the instant the
// failure lands — announced (or complete) rolls forward, anything earlier
// rolls back whole.
func (f *reshardFuzzer) failAt(target, dest int) error {
	res := f.res
	st := f.c.MigrationStatus()
	switch classOf(st) {
	case classMidStream:
		res.MidStream++
	case classInstalledUncut:
		res.InstalledUncut++
	case classMidAnnounce:
		res.MidAnnounce++
	default:
		res.PostCommit++
	}
	f.wantForward = !st.Active || st.Announced

	victim := failTarget(target, f.oldMembers, dest)
	f.lastVictims = f.c.Victims(victim)
	if err := f.RunPreCrash(); err != nil {
		return err
	}
	switch target {
	case reshardTargetPower:
		res.PowerCrashes++
	case reshardTargetCoord:
		res.CoordCrashes++
	case reshardTargetSource:
		res.SourceCrashes++
	default:
		res.DestCrashes++
	}
	if err := f.fleet.Fail(victim); err != nil {
		return err
	}
	if f.wantForward {
		res.RolledForward++
	} else {
		res.RolledBack++
	}
	return nil
}

// PostRound lets the world breathe between epochs so the next one starts
// from settled traffic rather than the recovery's doorstep.
func (f *reshardFuzzer) PostRound(rng *rand.Rand) error {
	for i, n := 0, 20+f.rng.Intn(40); i < n; i++ {
		if _, err := f.fleet.Advance(); err != nil {
			return err
		}
	}
	return nil
}

// ringAfter computes the committed epoch's membership from the old one.
func ringAfter(oldMembers []int, dest int, add bool) []int {
	var out []int
	for _, m := range oldMembers {
		if !add && m == dest {
			continue
		}
		out = append(out, m)
	}
	if add {
		out = append(out, dest)
	}
	return out
}

// checkRing asserts the live ring is exactly (version, members).
func checkRing(c *cluster.Cluster, v uint64, members []int) error {
	if c.Ring.Version() != v {
		return fmt.Errorf("ring v%d, want v%d", c.Ring.Version(), v)
	}
	got := c.Ring.Members()
	if len(got) != len(members) {
		return fmt.Errorf("ring members %v, want %v", got, members)
	}
	want := map[int]bool{}
	for _, m := range members {
		want[m] = true
	}
	for _, m := range got {
		if !want[m] {
			return fmt.Errorf("ring members %v, want %v", got, members)
		}
	}
	return nil
}

// ReshardOneShot runs a single parameterized reshard crash injection — the
// entry point of FuzzReshardEvent: boot a gated cluster+fleet, run a burst
// of warm-up traffic, open a scale-out (even seed) or scale-in (odd seed)
// epoch, and fail the fuzzed target after a countdown of eventK cluster
// events measured from the epoch's start — through the campaign's own
// epoch-opening and failure code — then apply the full oracle including
// whole-ring convergence. A countdown that outlives the step budget is a
// valid (uninteresting) input.
func ReshardOneShot(mode mem.PersistMode, seed, eventK uint64, target uint8, steps uint16) error {
	cfg := ReshardConfig{Mode: mode}
	cfg.fill()
	f, err := newReshardFuzzer(cfg, seed, faultplane.Stream(seed, ""), &ReshardResult{})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	// Warm-up: populate the stores so the epoch has keys to move.
	for i := 0; i < 60; i++ {
		if _, err := f.fleet.Advance(); err != nil {
			return err
		}
	}
	members := f.c.Ring.Members()
	dest, err := f.openEpoch(seed%2 == 0, members[int(seed/2)%len(members)])
	if err != nil {
		return err
	}
	fired, err := advanceToEvent(f.fleet, f.c, f.c.Events()+eventK%96+1, int(steps)%cfg.StepsPerCrash+1)
	if fired && err == nil {
		err = f.failAt(int(target)%reshardTargetCount, dest)
	}
	return judge(f, fired, err)
}
