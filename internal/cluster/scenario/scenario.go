// Package scenario is the deterministic whole-cluster scenario harness:
// table-driven scripts boot an N-shard TreeSLS cluster, run a multi-shard
// client fleet through the consistent-hash router, crash the coordinator,
// individual shards, or the whole cluster at scripted event indices, and
// assert after every crash that (a) recovery lands on a previously
// announced cut whose folded per-shard digests match the announcement and
// (b) no client holds an acknowledgement the recovered cluster cannot
// justify.
//
// Every script is bit-identical across runs — the determinism regression
// hashes the full acknowledgement/crash event log and compares digests,
// including under -race: the whole cluster is single-threaded simulated
// time.
package scenario

import (
	"fmt"
	"hash/fnv"

	"treesls/internal/cluster"
	"treesls/internal/faultplane"
	"treesls/internal/linearize"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// Crash is one scripted failure: fire when the cluster's event counter
// reaches At, against the given target (cluster.TargetPower,
// cluster.TargetCoord, or a shard index).
type Crash struct {
	At     uint64
	Target int
}

// Reshard is one scripted elastic membership change: when the cluster's
// event counter reaches At, start a scale-out (Add) or the scale-in of
// shard Target, then let the migration epoch interleave with traffic. A
// reshard whose turn comes while another epoch is still in flight waits for
// it.
type Reshard struct {
	At     uint64
	Add    bool
	Target int // the leaving shard (ignored when Add)
}

// Script is one whole-cluster scenario.
type Script struct {
	// Name labels the scenario in test output.
	Name string
	// Seed feeds shard jitter, ADR crash damage and the keyspace draw.
	Seed uint64
	// Shards is the cluster size (default 2).
	Shards int
	// Cores per shard (default 2).
	Cores int
	// Clients, KeysPerClient, Requests, Window shape the fleet
	// (defaults 2, 2, 6, 2).
	Clients       int
	KeysPerClient int
	Requests      int
	Window        int
	// Gated routes responses through the cut-conditioned gates. An
	// ungated script is the crash-unsafe baseline the harness must be
	// able to convict.
	Gated bool
	// Persist selects the shards' persistence model.
	Persist mem.PersistMode
	// Replicate attaches hot standbys to every shard.
	Replicate bool
	// Think is the fleet's per-key pause between an acknowledgement and
	// the next send it unblocks. Conviction scripts set Window=1 and
	// Think>0 so per-key writes are strictly sequential in simulated time
	// — the shape where an acked-then-rolled-back write is provably
	// non-linearizable.
	Think simclock.Duration
	// Crashes fire in order at their event thresholds (see
	// Cluster.Events).
	Crashes []Crash
	// Reshards fire in order at their event thresholds, interleaved with
	// traffic and crashes.
	Reshards []Reshard
}

func (sc *Script) fill() {
	if sc.Shards <= 0 {
		sc.Shards = 2
	}
	if sc.Cores <= 0 {
		sc.Cores = 2
	}
	if sc.Clients <= 0 {
		sc.Clients = 2
	}
	if sc.KeysPerClient <= 0 {
		sc.KeysPerClient = 2
	}
	if sc.Requests <= 0 {
		sc.Requests = 6
	}
	if sc.Window <= 0 {
		sc.Window = 2
	}
}

// Result is what a scenario run produced.
type Result struct {
	// Acked is the total acknowledged requests (== keys*Requests on a
	// completed run).
	Acked uint64
	// Crashes is how many scripted crashes actually fired.
	Crashes int
	// Retransmits, DupAcks mirror the fleet's counters.
	Retransmits uint64
	DupAcks     uint64
	// Released sums responses delivered through the gates.
	Released uint64
	// Rounds and Cuts count completed cluster rounds and announced cuts.
	Rounds uint64
	Cuts   int
	// RollForwards counts shards recovered by rolling the commit word
	// forward onto a covered prepare.
	RollForwards uint64
	// Unjustified collects external-synchrony violations found after a
	// crash: a client held an acknowledgement the recovered cluster could
	// not justify. Gated runs must produce none.
	Unjustified []string
	// CutViolations collects recoveries whose live digests did not match
	// the announced cut. Must always be empty.
	CutViolations []string
	// OrderViolations collects per-key FIFO breaches. Must always be
	// empty.
	OrderViolations []string
	// AuditViolations sums state-digest auditor breaches across shards.
	AuditViolations uint64
	// FinalTime is the cluster clock when the run completed.
	FinalTime simclock.Time
	// Events is the final cluster event counter (the coordinate space for
	// crash-at-every-K sweeps).
	Events uint64
	// CrashesSkipped counts scripted crashes that named a shard not yet
	// created (a destination crash scheduled before its StartAddShard) —
	// logged no-ops, so sweeps can target the joiner across all event
	// indices.
	CrashesSkipped int
	// RingVersion / RingMembers describe the routing ring the run ended
	// on; Migrations / MigrationsAborted / KeysMoved mirror the cluster's
	// migration counters. Every crash must leave the ring exactly old or
	// exactly new — the sweep asserts it via these fields.
	RingVersion       uint64
	RingMembers       []int
	Migrations        uint64
	MigrationsAborted uint64
	KeysMoved         uint64
	// LinearizeOps counts operations fed to the linearizability checker;
	// LinearizeViolations holds its conviction (empty for a linearizable
	// history). Gated runs must produce none; the ungated baseline must
	// not.
	LinearizeOps        int
	LinearizeViolations []string
	// Digest is an FNV-1a hash over the full ordered event log: two runs
	// of the same script must produce equal digests.
	Digest uint64
}

// Run executes one scenario script.
func Run(sc Script) (Result, error) {
	sc.fill()
	c, err := cluster.New(cluster.Config{
		Shards:    sc.Shards,
		Cores:     sc.Cores,
		Gated:     sc.Gated,
		Replicate: sc.Replicate,
		Persist:   sc.Persist,
		Seed:      sc.Seed,
		Audit:     true,
	})
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: cluster: %w", sc.Name, err)
	}
	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients:       sc.Clients,
		KeysPerClient: sc.KeysPerClient,
		Requests:      sc.Requests,
		Window:        sc.Window,
		Seed:          int64(sc.Seed),
		Think:         sc.Think,
	})
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: fleet: %w", sc.Name, err)
	}

	h := fnv.New64a()
	logf := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
	}
	// The linearizability oracle: every wire send is a write invocation,
	// every in-order acknowledgement its return, and after each recovery
	// (plus at the end) the restored counters become oracle reads.
	//
	// Operation timestamps are a LOGICAL clock — one tick per recorded
	// event in harness order — not simulated time. Simulated clocks are
	// per-machine and only partially ordered: an oracle read stamped with
	// the cluster-wide max can precede, causally, an acknowledgement whose
	// receive time rides a lagging shard's clock, and wall-clock-style
	// stamps would invert that pair and convict a correct run. The
	// harness's own deterministic schedule is exactly the observation
	// order a real-time client would see, so it is the sound time base.
	rec := linearize.NewRecorder()
	var ltime int64
	tick := func() int64 { ltime++; return ltime }
	fleet.OnSend = func(conn int, req uint64, at simclock.Time) {
		rec.InvokeWrite(conn, req, tick())
	}
	fleet.OnAck = func(conn int, req uint64, recv simclock.Time) {
		logf("ack %d %d %d\n", conn, req, recv)
		rec.AckWrite(conn, req, tick())
	}
	observe := func() error {
		for j := 0; j < fleet.Keys(); j++ {
			v, err := fleet.PeekCounter(j)
			if err != nil {
				return err
			}
			rec.Read(j, v, tick())
		}
		return nil
	}

	// Post-recovery invariants live in the shared fault-plane oracle
	// registry — the same oracle names and order the cluster/reshard
	// campaigns register — run in collect mode after every scripted crash:
	// convictions are recorded on the Result, mechanism failures abort.
	var bad []string
	var mech error
	oracles := faultplane.NewRegistry()
	oracles.Register("cut-verified", func() error {
		return c.VerifyCut(c.Coord.Newest())
	})
	oracles.Register("released-covered", c.ReleasedCovered)
	oracles.Register("extsync-justified", func() error {
		b, err := fleet.CheckJustified()
		if err != nil {
			mech = err
			return err
		}
		bad = b
		if len(b) > 0 {
			return fmt.Errorf("%d released-but-unjustified responses", len(b))
		}
		return nil
	})

	var res Result
	crash := func(target, n int) error {
		if target >= len(c.Shards) {
			// The scripted victim does not exist (yet): a sweep aimed a
			// crash at the joining destination before its StartAddShard
			// created it. A logged no-op keeps the sweep's coordinate
			// space uniform.
			logf("crash %s skipped (only %d machines) at events=%d\n",
				cluster.TargetName(target), len(c.Shards), c.Events())
			res.CrashesSkipped++
			return nil
		}
		logf("crash %s at events=%d time=%d\n", cluster.TargetName(target), c.Events(), c.Now())
		// A whole-cluster power failure that recovers onto a mismatched cut
		// is a conviction to record; any other recovery failure aborts.
		if err := fleet.Fail(target); err != nil {
			if target != cluster.TargetPower {
				return fmt.Errorf("%s recovery: %w", cluster.TargetName(target), err)
			}
			res.CutViolations = append(res.CutViolations,
				fmt.Sprintf("crash %d (%s): %v", n, cluster.TargetName(target), err))
		}
		// Recovery always converges on the newest announced cut: live
		// digests must reproduce the announcement, and no gate may have
		// released beyond it. The registry runs the full oracle set and
		// reports every conviction; the script records them all.
		bad, mech = nil, nil
		_, convs := oracles.CheckAll()
		if mech != nil {
			return fmt.Errorf("justification check: %w", mech)
		}
		for _, cv := range convs {
			if cv.Oracle == "extsync-justified" {
				continue // recorded per violation below
			}
			res.CutViolations = append(res.CutViolations,
				fmt.Sprintf("crash %d (%s): %v", n, cluster.TargetName(target), cv.Err))
		}
		for _, b := range bad {
			res.Unjustified = append(res.Unjustified,
				fmt.Sprintf("crash %d (%s): %s", n, cluster.TargetName(target), b))
		}
		logf("recovered epoch=%d ring=%d versions=%v unjustified=%d\n",
			c.Coord.Newest().Epoch, c.Ring.Version(), c.CommittedVersions(), len(bad))
		if err := observe(); err != nil {
			return fmt.Errorf("post-recovery oracle reads: %w", err)
		}
		res.Crashes++
		return nil
	}

	next, nextR := 0, 0
	limit := sc.Clients*sc.KeysPerClient*sc.Requests*256 + 65536
	for step := 0; ; step++ {
		if step > limit {
			return res, fmt.Errorf("scenario %s: no progress after %d steps (%d/%d acked)",
				sc.Name, limit, fleet.TotalAcked(), sc.Clients*sc.KeysPerClient*sc.Requests)
		}
		if next < len(sc.Crashes) && c.Events() >= sc.Crashes[next].At {
			if err := crash(sc.Crashes[next].Target, next); err != nil {
				return res, fmt.Errorf("scenario %s: crash %d: %w", sc.Name, next, err)
			}
			next++
			continue
		}
		// Once traffic is complete the event counter stalls, so a pending
		// reshard fires regardless of its threshold. A reshard only opens
		// between rounds.
		fleetDone := fleet.TotalAcked() >= uint64(sc.Clients*sc.KeysPerClient*sc.Requests)
		if nextR < len(sc.Reshards) && c.CurrentPhase() == cluster.PhaseIdle && !c.MigrationInFlight() &&
			(fleetDone || c.Events() >= sc.Reshards[nextR].At) {
			r := sc.Reshards[nextR]
			nextR++
			if r.Add {
				id, err := c.StartAddShard()
				if err != nil {
					return res, fmt.Errorf("scenario %s: reshard %d add: %w", sc.Name, nextR-1, err)
				}
				logf("reshard add shard%d at events=%d\n", id, c.Events())
			} else {
				if !c.Ring.Has(r.Target) {
					// A back-to-back script may ask to remove a shard an
					// earlier crash-aborted add never created, or one
					// already removed: logged no-op.
					logf("reshard remove shard%d skipped at events=%d\n", r.Target, c.Events())
					continue
				}
				if err := c.StartRemoveShard(r.Target); err != nil {
					return res, fmt.Errorf("scenario %s: reshard %d remove: %w", sc.Name, nextR-1, err)
				}
				logf("reshard remove shard%d at events=%d\n", r.Target, c.Events())
			}
			continue
		}
		st, err := fleet.Advance()
		if err != nil {
			return res, fmt.Errorf("scenario %s: step: %w", sc.Name, err)
		}
		// Traffic finishing first does not end the run: the remaining
		// scripted reshards drain so it ends on a settled ring.
		if st == cluster.StepDone && !c.MigrationInFlight() && nextR == len(sc.Reshards) {
			break
		}
	}

	res.Acked = fleet.TotalAcked()
	res.Retransmits = fleet.Retransmits
	res.DupAcks = fleet.DupAcks
	res.OrderViolations = append(res.OrderViolations, fleet.Violations...)
	for _, s := range c.Shards {
		if s.Drv != nil {
			res.Released += s.Drv.Stats.Delivered
		}
		if s.M.Auditor != nil {
			res.AuditViolations += s.M.Auditor.TotalViolations
		}
	}
	res.Rounds = c.Stats.Rounds
	res.Cuts = len(c.Coord.Cuts())
	res.RollForwards = c.Stats.RollForwards
	res.RingVersion = c.Ring.Version()
	res.RingMembers = c.Ring.Members()
	res.Migrations = c.Stats.Migrations
	res.MigrationsAborted = c.Stats.MigrationsAborted
	res.KeysMoved = c.Stats.KeysMoved
	res.FinalTime = c.Now()
	res.Events = c.Events()
	// Closing oracle reads over the settled state, then the verdict.
	if err := observe(); err != nil {
		return res, fmt.Errorf("scenario %s: final oracle reads: %w", sc.Name, err)
	}
	lin := rec.Check()
	res.LinearizeOps = lin.Ops
	if !lin.Ok {
		res.LinearizeViolations = append(res.LinearizeViolations,
			fmt.Sprintf("key %d: %s", lin.Key, lin.Reason))
	}
	logf("final acked=%d retrans=%d dupacks=%d released=%d rounds=%d cuts=%d rollfwd=%d ring=%d members=%v mig=%d/%d moved=%d linops=%d linok=%v time=%d\n",
		res.Acked, res.Retransmits, res.DupAcks, res.Released,
		res.Rounds, res.Cuts, res.RollForwards,
		res.RingVersion, res.RingMembers,
		res.Migrations, res.MigrationsAborted, res.KeysMoved,
		res.LinearizeOps, lin.Ok, res.FinalTime)
	res.Digest = h.Sum64()
	return res, nil
}

// EventCount runs the script without crashes and reports how many cluster
// events the clean run generates — the coordinate space for
// crash-at-every-K sweeps.
func EventCount(sc Script) (uint64, error) {
	sc.Crashes = nil
	sc.Name = sc.Name + "/count"
	r, err := Run(sc)
	if err != nil {
		return 0, err
	}
	return r.Events, nil
}
