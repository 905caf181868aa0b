// Package scenario is the deterministic whole-system scenario harness:
// table-driven scripts run a client fleet against a system, crash it at
// scripted event indices, recover, and assert after every crash that no
// client holds an acknowledgement the recovered state cannot justify.
//
// One driver runs two worlds. The machine world (Shards == 0) is one
// persistent machine serving a kvstore through internal/net. The cluster
// world (Shards > 0) is an N-shard cluster behind the consistent-hash
// router: recovery must also land on an announced cut whose folded digests
// match, reshards interleave with traffic, and a linearizability checker
// judges the history. The driver owns the progress limit, the crash list,
// the event-log digest, the oracle registry and the common result fields;
// each world builds, steps, fails and recovers its system and writes its
// own log lines.
//
// Every script is bit-identical across runs (the digest hashes the full
// acknowledgement/crash event log), including under -race: every world is
// single-threaded simulated time.
package scenario

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"

	"treesls/internal/apps/kvstore"
	"treesls/internal/cluster"
	"treesls/internal/extsync"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/linearize"
	"treesls/internal/mem"
	"treesls/internal/net"
	"treesls/internal/simclock"
)

// Crash is one scripted failure: fire when the world's event counter
// reaches At, against the given target (cluster.TargetPower,
// cluster.TargetCoord, or a shard index). The machine world has one
// failure domain and takes cluster.TargetPower only.
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

// Script is one whole-system scenario.
type Script struct {
	// Name labels the scenario in test output.
	Name string
	// Seed feeds machine jitter (quiescence delays), ADR crash damage and
	// the cluster keyspace draw.
	Seed uint64
	// Shards picks the world: 0 runs the machine world, N > 0 an N-shard
	// cluster.
	Shards int
	// Cores per machine (default 4 for the machine world, 2 per shard).
	Cores int
	// Clients, KeysPerClient, Requests, Window shape the fleet (defaults
	// 3, 1, 8, 2 for the machine world, whose clients own one key each;
	// 2, 2, 6, 2 for the cluster).
	Clients       int
	KeysPerClient int
	Requests      int
	Window        int
	// ValueBytes is the SET value size (default 64).
	ValueBytes int
	// IntervalUs is the machine world's checkpoint interval in simulated
	// microseconds (default 1000 = 1 ms). Negative runs without periodic
	// checkpoints; the fleet then forces one whenever it is gate-blocked.
	// The cluster runs a round whenever its fleet blocks.
	IntervalUs int
	// Gated routes responses through the external-synchrony gates (the
	// cluster's are cut-conditioned). An ungated script is the crash-unsafe
	// baseline the harness must be able to convict.
	Gated bool
	// Persist selects the shards' persistence model (cluster world).
	Persist mem.PersistMode
	// Replicate attaches hot standbys to every shard (cluster world).
	Replicate bool
	// Think is the fleet's per-key pause between an acknowledgement and
	// the next send it unblocks. Conviction scripts set Window=1 and
	// Think>0 so per-key writes are strictly sequential in simulated time
	// — the shape where an acked-then-rolled-back write is provably
	// non-linearizable.
	Think simclock.Duration
	// Crashes fire in order at their event thresholds (see Network.Events
	// and Cluster.Events).
	Crashes []Crash
	// Reshards fire in order at their event thresholds, interleaved with
	// traffic and crashes (cluster world).
	Reshards []Reshard
}

// fill applies the script's world defaults.
func (sc *Script) fill() {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	if sc.Shards > 0 {
		def(&sc.Cores, 2)
		def(&sc.Clients, 2)
		def(&sc.KeysPerClient, 2)
		def(&sc.Requests, 6)
	} else {
		def(&sc.Cores, 4)
		def(&sc.Clients, 3)
		def(&sc.KeysPerClient, 1)
		def(&sc.Requests, 8)
	}
	def(&sc.Window, 2)
}

// check rejects a field the script's world cannot honour: both worlds share
// one Script, and a script must never silently drop part of its scenario.
func (sc *Script) check() error {
	if sc.Shards > 0 {
		if sc.IntervalUs != 0 {
			return errors.New("IntervalUs needs the machine world: cluster rounds run when the fleet blocks")
		}
		return nil
	}
	if sc.KeysPerClient > 1 || sc.Persist != mem.ModeEADR || sc.Replicate || len(sc.Reshards) > 0 {
		return errors.New("KeysPerClient, Persist, Replicate and Reshards need the cluster world (Shards > 0)")
	}
	for _, c := range sc.Crashes {
		if c.Target != cluster.TargetPower {
			return fmt.Errorf("crash target %s needs the cluster world", cluster.TargetName(c.Target))
		}
	}
	return nil
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
	// DroppedRequests / DroppedResponses mirror the machine world's
	// network crash-loss counters.
	DroppedRequests  uint64
	DroppedResponses uint64
	// Released sums responses delivered through the gates.
	Released uint64
	// Checkpoints sums the checkpoints the world's machines took.
	Checkpoints uint64
	// Rounds and Cuts count completed cluster rounds and announced cuts.
	Rounds uint64
	Cuts   int
	// RollForwards counts shards recovered by rolling the commit word
	// forward onto a covered prepare.
	RollForwards uint64
	// Unjustified collects external-synchrony violations found after a
	// crash: a client held an acknowledgement the recovered state could
	// not justify. Gated runs must produce none; ungated runs exist to
	// produce some.
	Unjustified []string
	// CutViolations collects cluster recoveries whose live digests did not
	// match the announced cut, or whose gates released beyond it. Must
	// always be empty.
	CutViolations []string
	// OrderViolations collects per-key FIFO breaches. Must always be
	// empty.
	OrderViolations []string
	// AuditViolations sums state-digest auditor breaches across machines.
	AuditViolations uint64
	// FinalTime is the world clock when the run completed.
	FinalTime simclock.Time
	// Events is the final event counter (the coordinate space for
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
	// LinearizeOps counts operations fed to the cluster world's
	// linearizability checker; LinearizeViolations holds its conviction
	// (empty for a linearizable history). Gated runs must produce none;
	// the ungated baseline must not.
	LinearizeOps        int
	LinearizeViolations []string
	// Digest is an FNV-1a hash over the full ordered event log
	// (acknowledgements, crashes, recoveries, final counters): two runs of
	// the same script must produce equal digests.
	Digest uint64
}

// tally adds one machine's checkpoints, gate releases and audit breaches.
func (r *Result) tally(m *kernel.Machine, gate *extsync.Driver) {
	r.Checkpoints += m.Stats.Checkpoints
	if gate != nil {
		r.Released += gate.Stats.Delivered
	}
	if m.Auditor != nil {
		r.AuditViolations += m.Auditor.TotalViolations
	}
}

// world is one system under test. events is its crash coordinate; step
// takes one scheduling decision; fail logs crash n and recovers from it (ok
// is false for a logged no-op); recovered logs the recovery once the oracles
// ran and takes any post-recovery reads; finish fills the world's result
// fields and logs the final line.
type world interface {
	events() uint64
	step() (done bool, err error)
	fail(target, n int) (ok bool, err error)
	recovered(unjustified int) error
	finish() error
}

// driver is the state the worlds share with the script loop.
type driver struct {
	sc      Script
	h       hash.Hash64
	res     Result
	core    *net.ClientCore
	oracles *faultplane.Registry
	bad     []string // the last extsync-justified verdict
	mech    error    // a justification-check mechanism failure
}

func (d *driver) logf(format string, args ...any) {
	fmt.Fprintf(d.h, format, args...)
}

// Run executes one scenario script.
func Run(sc Script) (Result, error) {
	sc.fill()
	d := &driver{sc: sc, h: fnv.New64a(), oracles: faultplane.NewRegistry()}
	var w world
	err := sc.check()
	if err == nil && sc.Shards > 0 {
		w, err = d.newClusterWorld()
	} else if err == nil {
		w, err = d.newMachineWorld()
	}
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	worldAck := d.core.OnAck
	d.core.OnAck = func(conn int, req uint64, recv simclock.Time) {
		d.logf("ack %d %d %d\n", conn, req, recv)
		if worldAck != nil {
			worldAck(conn, req, recv)
		}
	}
	// Post-crash invariants live in the shared fault-plane oracle registry —
	// the same oracle names and order the crashfuzz campaigns register — run
	// in collect mode: convictions are recorded on the Result, a mechanism
	// failure aborts the script.
	d.oracles.Register("extsync-justified", func() error {
		d.bad, d.mech = d.core.CheckJustified()
		if d.mech != nil {
			return d.mech
		}
		if len(d.bad) > 0 {
			return fmt.Errorf("%d released-but-unjustified responses", len(d.bad))
		}
		return nil
	})

	total := sc.Clients * sc.KeysPerClient * sc.Requests
	limit := total*256 + 65536
	next := 0
	for step := 0; ; step++ {
		if step > limit {
			return d.res, fmt.Errorf("scenario %s: no progress after %d steps (%d/%d acked)",
				sc.Name, limit, d.core.TotalAcked(), total)
		}
		if next < len(sc.Crashes) && w.events() >= sc.Crashes[next].At {
			if err := d.crash(w, sc.Crashes[next].Target, next); err != nil {
				return d.res, fmt.Errorf("scenario %s: crash %d: %w", sc.Name, next, err)
			}
			next++
			continue
		}
		done, err := w.step()
		if err != nil {
			return d.res, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		if done {
			break
		}
	}

	d.res.Acked = d.core.TotalAcked()
	d.res.Retransmits = d.core.Retransmits
	d.res.DupAcks = d.core.DupAcks
	d.res.OrderViolations = append(d.res.OrderViolations, d.core.Violations...)
	d.res.Events = w.events()
	if err := w.finish(); err != nil {
		return d.res, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	d.res.Digest = d.h.Sum64()
	return d.res, nil
}

// crash fires crash n against target, then runs the full oracle set over
// the recovered world and records every conviction.
func (d *driver) crash(w world, target, n int) error {
	ok, err := w.fail(target, n)
	if err != nil || !ok {
		return err
	}
	d.bad, d.mech = nil, nil
	_, convs := d.oracles.CheckAll()
	if d.mech != nil {
		return fmt.Errorf("justification check: %w", d.mech)
	}
	tag := fmt.Sprintf("crash %d (%s)", n, cluster.TargetName(target))
	for _, cv := range convs {
		if cv.Oracle != "extsync-justified" { // recorded per violation below
			d.res.CutViolations = append(d.res.CutViolations, fmt.Sprintf("%s: %v", tag, cv.Err))
		}
	}
	for _, b := range d.bad {
		d.res.Unjustified = append(d.res.Unjustified, fmt.Sprintf("%s: %s", tag, b))
	}
	if err := w.recovered(len(d.bad)); err != nil {
		return err
	}
	d.res.Crashes++
	return nil
}

// EventCount runs the script without crashes and reports how many events
// the clean run generates — the coordinate space for crash-at-every-K
// sweeps.
func EventCount(sc Script) (uint64, error) {
	sc.Crashes = nil
	sc.Name = sc.Name + "/count"
	r, err := Run(sc)
	if err != nil {
		return 0, err
	}
	return r.Events, nil
}

// machineWorld is one persistent machine serving a kvstore through the
// simulated network; every crash is a power failure followed by a restore
// from the last committed checkpoint.
type machineWorld struct {
	*driver
	m     *kernel.Machine
	nw    *net.Network
	fleet *net.Fleet
}

func (d *driver) newMachineWorld() (*machineWorld, error) {
	sc := d.sc
	cfg := kernel.DefaultConfig()
	cfg.Cores = sc.Cores
	cfg.CheckpointEvery = simclock.Duration(max(sc.IntervalUs, 0)) * simclock.Microsecond
	if sc.IntervalUs == 0 {
		cfg.CheckpointEvery = simclock.Millisecond
	}
	cfg.Seed = sc.Seed
	cfg.Audit = true
	w := &machineWorld{driver: d, m: kernel.New(cfg)}

	var err error
	if w.nw, err = net.New(w.m, net.Config{Gated: sc.Gated, RingSlots: 1024}); err != nil {
		return nil, fmt.Errorf("net: %w", err)
	}
	scfg := kvstore.ServerConfig{Name: "redis", Threads: sc.Cores, HeapPages: 512, Buckets: 128, EchoValue: true}
	if sc.Gated {
		scfg.Ext = w.nw.Driver
	}
	srv, err := kvstore.NewServer(w.m, scfg)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	w.fleet, err = net.NewFleet(w.nw, srv, net.FleetConfig{
		Clients:    sc.Clients,
		Requests:   sc.Requests,
		Window:     sc.Window,
		ValueBytes: sc.ValueBytes,
		Think:      sc.Think,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	d.core = &w.fleet.ClientCore
	// Base checkpoint: boot state (processes, heap, empty store, ring) is
	// persistent before the first request, so a crash at any event index
	// has a committed state to restore.
	w.m.TakeCheckpoint()
	return w, nil
}

func (w *machineWorld) events() uint64 { return w.nw.Events() }

func (w *machineWorld) step() (bool, error) {
	done, err := w.fleet.Step()
	if err != nil {
		return false, fmt.Errorf("step: %w", err)
	}
	return done, nil
}

func (w *machineWorld) fail(_, _ int) (bool, error) {
	w.logf("crash at events=%d time=%d\n", w.nw.Events(), w.m.Now())
	w.m.Crash()
	if err := w.m.Restore(); err != nil {
		return false, fmt.Errorf("restore: %w", err)
	}
	w.fleet.ResyncAfterRestore()
	return true, nil
}

func (w *machineWorld) recovered(unjustified int) error {
	w.logf("restored version=%d unjustified=%d\n", w.m.Ckpt.CommittedVersion(), unjustified)
	return nil
}

func (w *machineWorld) finish() error {
	res := &w.res
	res.DroppedRequests = w.nw.Stats.DroppedRequests
	res.DroppedResponses = w.nw.Stats.DroppedResponses
	res.tally(w.m, w.nw.Driver)
	res.FinalTime = w.m.Now()
	w.logf("final acked=%d retrans=%d dupacks=%d dropreq=%d dropresp=%d released=%d ckpts=%d time=%d\n",
		res.Acked, res.Retransmits, res.DupAcks, res.DroppedRequests, res.DroppedResponses,
		res.Released, res.Checkpoints, res.FinalTime)
	return nil
}

// clusterWorld is an N-shard cluster behind the consistent-hash router: it
// schedules the script's reshards between rounds, fails the scripted
// target, and feeds a linearizability recorder.
type clusterWorld struct {
	*driver
	c     *cluster.Cluster
	fleet *cluster.Fleet
	rec   *linearize.Recorder
	ltime int64
	nextR int // the next scripted reshard
}

func (d *driver) newClusterWorld() (*clusterWorld, error) {
	sc := d.sc
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
		return nil, fmt.Errorf("cluster: %w", err)
	}
	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients:       sc.Clients,
		KeysPerClient: sc.KeysPerClient,
		Requests:      sc.Requests,
		Window:        sc.Window,
		ValueBytes:    sc.ValueBytes,
		Seed:          int64(sc.Seed),
		Think:         sc.Think,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	w := &clusterWorld{driver: d, c: c, fleet: fleet, rec: linearize.NewRecorder()}
	d.core = &fleet.ClientCore
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
	fleet.OnSend = func(conn int, req uint64, at simclock.Time) {
		w.rec.InvokeWrite(conn, req, w.tick())
	}
	fleet.OnAck = func(conn int, req uint64, recv simclock.Time) {
		w.rec.AckWrite(conn, req, w.tick())
	}
	// Recovery always converges on the newest announced cut: live digests
	// must reproduce the announcement, and no gate may have released
	// beyond it — the order the cluster/reshard campaigns register.
	d.oracles.Register("cut-verified", func() error {
		return c.VerifyCut(c.Coord.Newest())
	})
	d.oracles.Register("released-covered", c.ReleasedCovered)
	return w, nil
}

func (w *clusterWorld) tick() int64 { w.ltime++; return w.ltime }

// observe reads every key's restored counter back as an oracle read.
func (w *clusterWorld) observe() error {
	for j := 0; j < w.fleet.Keys(); j++ {
		v, err := w.fleet.PeekCounter(j)
		if err != nil {
			return err
		}
		w.rec.Read(j, v, w.tick())
	}
	return nil
}

func (w *clusterWorld) events() uint64 { return w.c.Events() }

func (w *clusterWorld) step() (bool, error) {
	c, sc := w.c, &w.sc
	// Once traffic is complete the event counter stalls, so a pending
	// reshard fires regardless of its threshold. A reshard only opens
	// between rounds.
	fleetDone := w.fleet.TotalAcked() >= uint64(sc.Clients*sc.KeysPerClient*sc.Requests)
	if w.nextR < len(sc.Reshards) && c.CurrentPhase() == cluster.PhaseIdle && !c.MigrationInFlight() &&
		(fleetDone || c.Events() >= sc.Reshards[w.nextR].At) {
		return false, w.reshard()
	}
	st, err := w.fleet.Advance()
	if err != nil {
		return false, fmt.Errorf("step: %w", err)
	}
	// Traffic finishing first does not end the run: the remaining
	// scripted reshards drain so it ends on a settled ring.
	return st == cluster.StepDone && !c.MigrationInFlight() && w.nextR == len(sc.Reshards), nil
}

// reshard starts the next scripted membership change.
func (w *clusterWorld) reshard() error {
	c, r, n := w.c, w.sc.Reshards[w.nextR], w.nextR
	w.nextR++
	if r.Add {
		id, err := c.StartAddShard()
		if err != nil {
			return fmt.Errorf("reshard %d add: %w", n, err)
		}
		w.logf("reshard add shard%d at events=%d\n", id, c.Events())
		return nil
	}
	if !c.Ring.Has(r.Target) {
		// A back-to-back script may ask to remove a shard an earlier
		// crash-aborted add never created, or one already removed: logged
		// no-op.
		w.logf("reshard remove shard%d skipped at events=%d\n", r.Target, c.Events())
		return nil
	}
	if err := c.StartRemoveShard(r.Target); err != nil {
		return fmt.Errorf("reshard %d remove: %w", n, err)
	}
	w.logf("reshard remove shard%d at events=%d\n", r.Target, c.Events())
	return nil
}

func (w *clusterWorld) fail(target, n int) (bool, error) {
	c := w.c
	if target >= len(c.Shards) {
		// The scripted victim does not exist (yet): a sweep aimed a crash
		// at the joining destination before its StartAddShard created it.
		// A logged no-op keeps the sweep's coordinate space uniform.
		w.logf("crash %s skipped (only %d machines) at events=%d\n",
			cluster.TargetName(target), len(c.Shards), c.Events())
		w.res.CrashesSkipped++
		return false, nil
	}
	w.logf("crash %s at events=%d time=%d\n", cluster.TargetName(target), c.Events(), c.Now())
	// A whole-cluster power failure that recovers onto a mismatched cut is
	// a conviction to record; any other recovery failure aborts.
	if err := w.fleet.Fail(target); err != nil {
		if target != cluster.TargetPower {
			return false, fmt.Errorf("%s recovery: %w", cluster.TargetName(target), err)
		}
		w.res.CutViolations = append(w.res.CutViolations,
			fmt.Sprintf("crash %d (%s): %v", n, cluster.TargetName(target), err))
	}
	return true, nil
}

func (w *clusterWorld) recovered(unjustified int) error {
	c := w.c
	w.logf("recovered epoch=%d ring=%d versions=%v unjustified=%d\n",
		c.Coord.Newest().Epoch, c.Ring.Version(), c.CommittedVersions(), unjustified)
	if err := w.observe(); err != nil {
		return fmt.Errorf("post-recovery oracle reads: %w", err)
	}
	return nil
}

func (w *clusterWorld) finish() error {
	c, res := w.c, &w.res
	for _, s := range c.Shards {
		res.tally(s.M, s.Drv)
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
	// Closing oracle reads over the settled state, then the verdict.
	if err := w.observe(); err != nil {
		return fmt.Errorf("final oracle reads: %w", err)
	}
	lin := w.rec.Check()
	res.LinearizeOps = lin.Ops
	if !lin.Ok {
		res.LinearizeViolations = append(res.LinearizeViolations,
			fmt.Sprintf("key %d: %s", lin.Key, lin.Reason))
	}
	w.logf("final acked=%d retrans=%d dupacks=%d released=%d rounds=%d cuts=%d rollfwd=%d ring=%d members=%v mig=%d/%d moved=%d linops=%d linok=%v time=%d\n",
		res.Acked, res.Retransmits, res.DupAcks, res.Released,
		res.Rounds, res.Cuts, res.RollForwards,
		res.RingVersion, res.RingMembers,
		res.Migrations, res.MigrationsAborted, res.KeysMoved,
		res.LinearizeOps, lin.Ok, res.FinalTime)
	return nil
}
