package main

import (
	"fmt"
	"time"

	"treesls/internal/cluster"
	"treesls/internal/faultplane"
	"treesls/internal/linearize"
	"treesls/internal/obs/audit"
	"treesls/internal/simclock"
	"treesls/internal/workload"
)

// reshardSize sizes a cluster-reshard episode.
type reshardSize struct {
	clusters                       int // independent clusters, each with its own seeded keyspace
	clients, keysPerClient, window int
	acks                           int // acknowledged requests per cluster
}

// reshardFull keeps 16 keys per client: the keyspace stays well above the
// client count without letting fleet scheduling swamp the cut protocol.
// Which shard a key lands on is the seed's largest effect, so an episode
// pools twelve clusters with independent keyspaces.
var reshardFull = reshardSize{clusters: 12, clients: 16, keysPerClient: 16, window: 4, acks: 4000}

// reshardRun is one cluster of an episode and its linearizability history.
type reshardRun struct {
	c         *cluster.Cluster
	fleet     *cluster.Fleet
	rec       *linearize.Recorder
	tick      int64 // logical clock of the history
	sends     uint64
	failAfter uint64 // acknowledgements between the ring flip and the power failure
}

// reshardAcc pools the measurements of an episode's clusters.
type reshardAcc struct {
	rs                  rounds
	lats, roundSims     []simclock.Duration
	powerfails          []simclock.Duration
	elapsed             simclock.Duration // simulated, checks excluded
	d                   counters
	acked, attempted    uint64
	fleetSteps, retrans uint64
	rounds, backupPages uint64
	st                  cluster.Stats
}

// reshard drives gated 4-shard clusters through the consistent-cut protocol
// one micro-action at a time: fleet steps, cluster rounds opened when the
// fleet blocks, one online 4->5 scale-out starting at the midpoint, and one
// whole-cluster power failure after the ring flips.
func reshard(seed uint64, sz reshardSize, traced bool) (*outcome, error) {
	o := &outcome{sim: map[string]float64{}}
	in := newDigest()
	r := faultplane.Stream(seed, "clusters")
	runs := make([]*reshardRun, sz.clusters)
	t0 := time.Now()
	for i := range runs {
		cseed := r.Uint64()
		c, err := cluster.New(cluster.Config{
			Shards: 4, Cores: 2, Gated: true, Seed: cseed,
			PerOpCompute: 50 * simclock.Microsecond,
		})
		if err != nil {
			return nil, err
		}
		fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
			Clients: sz.clients, KeysPerClient: sz.keysPerClient, Window: sz.window,
			ValueBytes: 64, Seed: int64(cseed),
		})
		if err != nil {
			return nil, err
		}
		runs[i] = &reshardRun{c: c, fleet: fleet, rec: linearize.NewRecorder(),
			failAfter: uint64(r.Intn(sz.acks / 8))}
	}
	o.setup = time.Since(t0)
	for _, run := range runs {
		in.word(uint64(run.c.Config().Seed))
		for _, k := range workload.ClusterKeys(int64(run.c.Config().Seed), sz.clients*sz.keysPerClient) {
			in.bytes(k)
		}
		in.word(run.failAfter)
	}
	o.inputs = in.sum()
	if traced {
		o.tr = newTracer(nil)
	}

	var acc reshardAcc
	w := startWatch()
	for _, run := range runs {
		if o.tr != nil {
			o.tr.clock = run.c.Now
		}
		if err := run.drive(sz.acks, o.tr, w, &acc); err != nil {
			return nil, err
		}
	}
	w.stop(o)
	o.tr.close()
	for _, run := range runs {
		if err := run.check(); err != nil {
			return nil, err
		}
	}
	o.acked = acc.acked
	o.attempted = acc.attempted

	s := o.sim
	s["sim_set_p50_us"] = us(quantile(acc.lats, 0.50))
	s["sim_set_p99_us"] = us(quantile(acc.lats, 0.99))
	s["sim_kops_per_s"] = per(float64(acc.acked), acc.elapsed.Millis())
	s["sim_restore_p50_us"] = us(quantile(acc.powerfails, 0.50))
	acc.rs.metrics(s)
	acc.d.metrics(s, float64(acc.acked), float64(acc.acked), float64(len(acc.rs.reps)))
	s["checkpoint.backup_pages"] = float64(acc.backupPages)
	s["cluster.fleet_steps_per_req"] = per(float64(acc.fleetSteps), float64(acc.acked))
	s["cluster.round_sim_us_p50"] = us(quantile(acc.roundSims, 0.50))
	s["cluster.round_sim_us_p99"] = us(quantile(acc.roundSims, 0.99))
	s["cluster.rounds_per_kreq"] = per(float64(acc.rounds), float64(acc.acked)/1000)
	s["cluster.keys_moved"] = float64(acc.st.KeysMoved)
	s["cluster.migration_kb"] = float64(acc.st.MigrationBytes) / 1024
	s["cluster.forwarded_requests"] = float64(acc.st.ForwardedRequests)
	s["cluster.dual_writes"] = float64(acc.st.DualWrites)
	s["cluster.powerfail_sim_us"] = us(quantile(acc.powerfails, 0.50))
	s["net.retransmits"] = float64(acc.retrans)
	return o, nil
}

// drive runs one cluster's measured stream and adds its figures to acc.
func (run *reshardRun) drive(acks int, tr *tracer, w *stopwatch, acc *reshardAcc) error {
	c, fleet := run.c, run.fleet
	fleet.OnSend = func(conn int, req uint64, _ simclock.Time) {
		run.tick++
		run.sends++
		run.rec.InvokeWrite(conn, req, run.tick)
	}
	fleet.OnAck = func(conn int, req uint64, _ simclock.Time) {
		run.tick++
		run.rec.AckWrite(conn, req, run.tick)
	}
	base := make([]counters, len(c.Shards))
	for i, s := range c.Shards {
		base[i] = snap(s.M)
	}
	// total sums every shard's counters since the stream began; a shard
	// that joins later counts from its boot.
	total := func() counters {
		var t counters
		for i, s := range c.Shards {
			t = t.add(snap(s.M))
			if i < len(base) {
				t = t.sub(base[i])
			}
		}
		return t
	}
	var ckpts []uint64
	var checkSim simclock.Duration
	var excl counters
	var roundStart simclock.Time
	roundSpan := -1 // the open bench.round span, parent of the round's steps
	var steps uint64
	var flipAt uint64
	started, powerFailed, migTurn := false, false, false
	rounds0 := c.Stats.Rounds
	start := c.Now()

	for fleet.TotalAcked() < uint64(acks) || !powerFailed {
		if steps > 5_000_000 {
			return fmt.Errorf("stalled at %d/%d acks", fleet.TotalAcked(), acks)
		}
		steps++
		acked := fleet.TotalAcked()
		phase := c.CurrentPhase()
		if !started && phase == cluster.PhaseIdle && acked >= uint64(acks/2) {
			started = true
			sp := tr.begin("cluster.StartAddShard", "cluster", steps)
			_, err := c.StartAddShard()
			tr.end(sp)
			if err != nil {
				return err
			}
			continue
		}
		if started && flipAt == 0 && c.Stats.Migrations == 1 {
			flipAt = acked
		}
		if flipAt > 0 && !powerFailed && acked >= flipAt+run.failAfter {
			powerFailed = true
			if roundSpan >= 0 {
				tr.end(roundSpan) // the power failure aborts the round
				roundSpan = -1
			}
			crashAt := c.Now()
			sp := tr.begin("cluster.PowerFail", "cluster", steps)
			cut, err := c.PowerFail()
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("power failure: %w", err)
			}
			acc.powerfails = append(acc.powerfails, c.Now().Sub(crashAt))
			fleet.ResyncAll()
			w.pause()
			sim0, x0 := c.Now(), total()
			if err := run.recovered(cut); err != nil {
				return err
			}
			checkSim += c.Now().Sub(sim0)
			excl = excl.add(total().sub(x0))
			w.resume()
			continue
		}

		ckpts = ckpts[:0]
		for _, s := range c.Shards {
			ckpts = append(ckpts, s.M.Ckpt.Stats.Checkpoints)
		}
		sim0 := c.Now()
		if phase != cluster.PhaseIdle && roundSpan < 0 {
			roundSpan = tr.begin("bench.round", "bench", c.Stats.Rounds)
		}
		switch {
		case phase != cluster.PhaseIdle:
			sp := tr.begin("cluster.Step."+phase.String(), "cluster", c.Stats.Rounds)
			err := c.Step()
			tr.end(sp)
			if err != nil {
				return err
			}
			if phase == cluster.PhasePrepare {
				if err := prepared(c, ckpts, &acc.rs, tr); err != nil {
					return err
				}
			}
		case c.MigrationInFlight() && migTurn:
			migTurn = false
			sp := tr.begin("cluster.MigStep", "cluster", steps)
			err := c.MigStep()
			tr.end(sp)
			if err != nil {
				return err
			}
		default:
			migTurn = true
			acc.fleetSteps++
			sp := tr.begin("cluster.Fleet.Step", "cluster", steps)
			st, err := fleet.Step()
			tr.end(sp)
			if err != nil {
				return err
			}
			if st == cluster.StepBlocked && !c.MigrationInFlight() {
				c.StartRound()
			}
		}
		now := c.CurrentPhase()
		if phase == cluster.PhaseIdle && now != cluster.PhaseIdle {
			roundStart = sim0
		}
		if phase != cluster.PhaseIdle && now == cluster.PhaseIdle {
			acc.roundSims = append(acc.roundSims, c.Now().Sub(roundStart))
			if roundSpan >= 0 {
				tr.end(roundSpan)
				roundSpan = -1
			}
		}
	}
	acc.elapsed += c.Now().Sub(start) - checkSim
	acc.d = acc.d.add(total().sub(excl))
	acc.acked += fleet.TotalAcked()
	acc.attempted += run.sends - fleet.Retransmits
	acc.lats = append(acc.lats, fleet.Latencies...)
	acc.retrans += fleet.Retransmits
	acc.rounds += c.Stats.Rounds - rounds0
	for _, s := range c.Shards {
		acc.backupPages += uint64(s.M.Ckpt.Stats.BackupPages)
	}
	acc.st.KeysMoved += c.Stats.KeysMoved
	acc.st.MigrationBytes += c.Stats.MigrationBytes
	acc.st.ForwardedRequests += c.Stats.ForwardedRequests
	acc.st.DualWrites += c.Stats.DualWrites
	return nil
}

// recovered checks a cluster right after a power failure: the recovered cut
// verifies, every released response is covered by it, every acknowledgement
// is justified by the restored state, and each key's restored counter joins
// the linearizability history.
func (run *reshardRun) recovered(cut cluster.Cut) error {
	if err := run.c.VerifyCut(cut); err != nil {
		return err
	}
	if err := run.c.ReleasedCovered(); err != nil {
		return err
	}
	if bad, err := run.fleet.CheckJustified(); err != nil || len(bad) > 0 {
		return fmt.Errorf("after power failure: justified check: %v %v", err, bad)
	}
	return run.observe()
}

// observe records one oracle read per key into the history.
func (run *reshardRun) observe() error {
	for j := 0; j < run.fleet.Keys(); j++ {
		v, err := run.fleet.PeekCounter(j)
		if err != nil {
			return err
		}
		run.tick++
		run.rec.Read(j, v, run.tick)
	}
	return nil
}

// check runs the end-of-episode checks on one cluster.
func (run *reshardRun) check() error {
	c, fleet := run.c, run.fleet
	if err := c.VerifyCut(c.Coord.Newest()); err != nil {
		return err
	}
	if err := c.ReleasedCovered(); err != nil {
		return err
	}
	if bad, err := fleet.CheckJustified(); err != nil || len(bad) > 0 {
		return fmt.Errorf("justified check: %v %v", err, bad)
	}
	if bad, err := fleet.CheckSoleOwner(); err != nil || len(bad) > 0 {
		return fmt.Errorf("sole-owner check: %v %v", err, bad)
	}
	if err := run.observe(); err != nil {
		return err
	}
	if res := run.rec.Check(); !res.Ok {
		return fmt.Errorf("history not linearizable: key %d: %s", res.Key, res.Reason)
	}
	if c.Stats.Migrations != 1 {
		return fmt.Errorf("%d migrations committed, want 1", c.Stats.Migrations)
	}
	if len(fleet.Violations) > 0 || fleet.DupAcks > 0 {
		return fmt.Errorf("fleet: FIFO violations %v, %d duplicate acks", fleet.Violations, fleet.DupAcks)
	}
	return nil
}

// prepared records the checkpoint report of the shard a prepare step just
// checkpointed (before holds every shard's checkpoint count before the
// step). A traced run then replays audit.RestorableDigest on that shard to
// time the digest the prepare computed.
func prepared(c *cluster.Cluster, before []uint64, rs *rounds, tr *tracer) error {
	for i, s := range c.Shards {
		if i >= len(before) {
			break
		}
		switch s.M.Ckpt.Stats.Checkpoints - before[i] {
		case 0:
			continue
		case 1:
			if err := rs.add(s.M.Ckpt.LastReport); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if tr != nil {
				sp := tr.begin("audit.RestorableDigest", "audit", uint64(i))
				audit.RestorableDigest(s.M.Ckpt, s.M.Memory)
				tr.end(sp)
			}
		default:
			return fmt.Errorf("shard %d took several checkpoints in one prepare step", i)
		}
	}
	return nil
}
