package cluster

// The multi-shard client fleet: closed-loop clients whose keys spread over
// the whole keyspace, routed to their owning shards through the ring. The
// client side — window pipelining, the counter-value oracle, FIFO and
// justification checks — is internal/net's ClientCore, shared with the
// single-machine fleet. This file adds the routing: every request and
// response pays the router encapsulation (net.RouteHeaderBytes), receipts
// arrive per shard, stragglers queued at a previous owner are forwarded,
// and a resync after a failure rewinds only the keys the recovered shard
// owns. Fleet.Advance is the one micro-step scheduler over traffic,
// rounds and migration, and Fleet.Fail the one fail-and-resync entry
// point.

import (
	"fmt"

	"treesls/internal/net"
	"treesls/internal/simclock"
	"treesls/internal/workload"
)

// FleetConfig sizes the cluster client fleet.
type FleetConfig struct {
	// Clients is the number of concurrent client processes (default 4).
	Clients int
	// KeysPerClient is how many distinct keys each client owns (default
	// 4). Keys are drawn from the seeded cluster keyspace, so each client
	// usually touches several shards.
	KeysPerClient int
	// Requests is the per-key request budget; 0 means unbounded (a
	// harness drives Advance itself).
	Requests int
	// Window is the per-client pipeline depth across its keys (default 4).
	Window int
	// ValueBytes is the SET value size (>= 8; default 64; at most
	// extsync.MaxPayload when gated).
	ValueBytes int
	// Seed seeds the keyspace draw (key→shard spread).
	Seed int64
	// Think is the client pause between an acknowledgement and the next
	// send it unblocks on that key.
	Think simclock.Duration
}

// keyRoute is the fleet's routing view of one key (index == wire conn id).
type keyRoute struct {
	shard int // the ring owner (reroutes on flip)

	// sentShard is where the newest in-flight request was physically sent
	// (its NIC queue). It lags shard across a ring flip: frames queued at
	// the previous owner are forwarded at dispatch, but if that owner dies
	// first they die with it — ResyncShard matches either field so those
	// keys rewind too.
	sentShard int
}

// StepStatus reports what one fleet micro-step did.
type StepStatus int

const (
	// StepProgress: a frame was dispatched, a request sent, or a round or
	// migration action taken.
	StepProgress StepStatus = iota
	// StepBlocked: every client is window-blocked behind gated responses
	// parked in shard rings — only a cluster round (the cut) releases
	// them.
	StepBlocked
	// StepDone: every key reached its request budget.
	StepDone
)

// Crash targets for Fleet.Fail. Non-negative values name a shard index.
const (
	// TargetPower fails every shard at once (whole-cluster power loss).
	TargetPower = -1
	// TargetCoord kills the coordinator process (durable cut log
	// survives, forming state is lost).
	TargetCoord = -2
)

// TargetName names a crash target for logs.
func TargetName(target int) string {
	switch target {
	case TargetPower:
		return "power"
	case TargetCoord:
		return "coord"
	default:
		return fmt.Sprintf("shard%d", target)
	}
}

// Victims lists the shards a failure of target crash-restores: every shard
// for TargetPower, none for TargetCoord, else the one shard.
func (c *Cluster) Victims(target int) []int {
	switch target {
	case TargetPower:
		v := make([]int, len(c.Shards))
		for i := range v {
			v[i] = i
		}
		return v
	case TargetCoord:
		return nil
	default:
		return []int{target}
	}
}

// Fleet drives the cluster's client load: the shared client core plus ring
// routing. All scheduling is deterministic: Step executes exactly one
// micro-step chosen by simulated-time priority across all shards.
type Fleet struct {
	net.ClientCore
	c     *Cluster
	cfg   FleetConfig
	route []keyRoute

	srvThreads int

	// migTurn alternates Advance between migration and traffic while an
	// epoch is in flight.
	migTurn bool
}

// NewFleet builds the fleet: Clients*KeysPerClient seeded keys, each routed
// to its ring owner, with every shard's receipt hook wired back here.
func NewFleet(c *Cluster, cfg FleetConfig) (*Fleet, error) {
	if cfg.KeysPerClient <= 0 {
		cfg.KeysPerClient = 4
	}
	core, err := net.FleetConfig{
		Clients: cfg.Clients, Requests: cfg.Requests, Window: cfg.Window,
		ValueBytes: cfg.ValueBytes, Think: cfg.Think,
	}.Defaulted(c.cfg.Gated)
	if err != nil {
		return nil, err
	}
	cfg.Clients, cfg.Window, cfg.ValueBytes = core.Clients, core.Window, core.ValueBytes
	f := &Fleet{c: c, cfg: cfg, srvThreads: c.cfg.Cores}
	keys := workload.ClusterKeys(cfg.Seed, cfg.Clients*cfg.KeysPerClient)
	for _, key := range keys {
		owner := c.Ring.Owner(key)
		f.route = append(f.route, keyRoute{shard: owner, sentShard: owner})
	}
	f.ClientCore = net.NewClientCore(core, keys, func(j int) string {
		return fmt.Sprintf("key %d (shard %d)", j, f.route[j].shard)
	}, f.PeekCounter)
	f.attachReceipts()
	f.applyAffinity()
	c.SetOnRingChange(f.Reroute)
	return f, nil
}

// attachReceipts wires every shard network's delivery hook back to the
// fleet (idempotent; re-run when a joining shard appears).
func (f *Fleet) attachReceipts() {
	for i := range f.c.Shards {
		shard := i
		f.c.Shards[i].Net.SetOnReceipt(func(r net.Receipt) { f.receipt(shard, r) })
	}
}

// Reroute re-derives every key's owning shard from the live ring — the
// cluster fires it whenever the ring changes (a migration commit, in the
// clean path or a recovery roll-forward). Frames already queued at a
// previous owner are not lost: its dispatcher forwards them to the new
// owner over the migration mesh.
func (f *Fleet) Reroute() {
	for j := range f.route {
		f.route[j].shard = f.c.Ring.Owner(f.Key(j))
	}
	f.attachReceipts()
	f.applyAffinity()
}

// applyAffinity pins every shard server's worker threads round-robin to
// cores (idempotent; re-applied after restore).
func (f *Fleet) applyAffinity() {
	for _, s := range f.c.Shards {
		net.PinWorkers(s.M, s.Srv.Name())
	}
}

// Config returns the fleet's (defaulted) configuration.
func (f *Fleet) Config() FleetConfig { return f.cfg }

// ShardOf returns the owning shard of key j.
func (f *Fleet) ShardOf(j int) int { return f.route[j].shard }

// receipt is a shard network's delivery hook: a response must come from
// the key's ring owner before the client core accounts it.
func (f *Fleet) receipt(shard int, r net.Receipt) {
	if r.Conn < 0 || r.Conn >= f.Keys() {
		f.Violations = append(f.Violations, fmt.Sprintf("shard %d: receipt for unknown conn %d", shard, r.Conn))
		return
	}
	if owner := f.route[r.Conn].shard; owner != shard {
		f.Violations = append(f.Violations,
			fmt.Sprintf("key %d: response from shard %d but the ring owner is %d", r.Conn, shard, owner))
		return
	}
	f.Receive(r)
}

// nextArrival locates the earliest queued frame across every shard's NIC
// queues, ties broken by shard index.
func (f *Fleet) nextArrival() (int, simclock.Time, bool) {
	bestShard, bestAt, ok := -1, simclock.Time(0), false
	for i, s := range f.c.Shards {
		if at, have := s.Net.NextArrival(); have && (!ok || at < bestAt) {
			bestShard, bestAt, ok = i, at, true
		}
	}
	return bestShard, bestAt, ok
}

// dispatch runs the server side of one frame on its shard: the kvstore SET
// on the key's worker thread, then the response through the serving
// shard's gate (or straight out when ungated). The router header is
// charged both ways.
func (f *Fleet) dispatch(shard int) func(p net.Packet, ready simclock.Time) error {
	return func(p net.Packet, ready simclock.Time) error {
		key, val := f.Key(p.Conn), f.Value(p.Conn, p.Req)
		serve, arrive := shard, ready
		if owner := f.c.Ring.Owner(key); owner != shard {
			// A straggler: the frame was queued here before the ring
			// flipped this key away. Relay it to the current owner over
			// the migration mesh and serve it there — the response then
			// rides the owner's network, matching the rerouted shard.
			serve = owner
			arrive = f.c.ForwardRequest(shard, owner, f.WireBytes(p.Conn)+net.RouteHeaderBytes, ready)
		}
		s := f.c.Shards[serve]
		res, seq, err := s.Srv.SetAt(arrive, p.Conn%f.srvThreads, key, val)
		if err != nil {
			return err
		}
		if serve == shard {
			// An in-flight migration dual-writes this value to the key's
			// destination (no-op outside an epoch or for unmoved keys),
			// so the install never goes stale behind answered traffic.
			if _, err := f.c.DualWrite(key, val, res.End); err != nil {
				return err
			}
		}
		s.Net.Reply(p, res, seq, len(val)+net.RouteHeaderBytes)
		return nil
	}
}

// Step advances the fleet by one deterministic micro-step: the earlier of
// (earliest queued frame across shards) and (earliest eligible send) runs.
// When neither exists it returns StepDone if every budget is met, and
// StepBlocked if gated responses are parked behind the next cut.
func (f *Fleet) Step() (StepStatus, error) {
	shard, arriveAt, haveFrame := f.nextArrival()
	j, sendAt, haveSender := f.NextSender(f.cfg.Requests)
	if haveFrame && (!haveSender || arriveAt <= sendAt) {
		_, err := f.c.Shards[shard].Net.DispatchNext(f.dispatch(shard))
		return StepProgress, err
	}
	if haveSender {
		r := &f.route[j]
		r.sentShard = r.shard
		req, at := f.Send(j)
		f.c.Shards[r.shard].Net.SendRequest(j, req, f.WireBytes(j)+net.RouteHeaderBytes, at)
		return StepProgress, nil
	}
	if f.DoneAll(f.cfg.Requests) {
		return StepDone, nil
	}
	return StepBlocked, nil
}

// Advance is the one micro-step scheduler for a cluster under load: a
// round step while a round is in flight (so crashes can land between any
// two protocol actions); otherwise, while a migration epoch is in flight,
// strict alternation of migration and fleet micro-steps (keys stream under
// live writes); and a fleet micro-step that opens a round when every
// client is blocked — unless an epoch holds the ring, in which case the
// migration's own commit cut does the releasing. Returns the fleet step's
// status, or StepProgress for a round or migration action.
func (f *Fleet) Advance() (StepStatus, error) {
	c := f.c
	if c.CurrentPhase() != PhaseIdle {
		return StepProgress, c.Step()
	}
	if c.MigrationInFlight() && f.migTurn {
		f.migTurn = false
		return StepProgress, c.MigStep()
	}
	f.migTurn = true
	st, err := f.Step()
	if err == nil && st == StepBlocked && !c.MigrationInFlight() {
		c.StartRound()
	}
	return st, err
}

// Run drives the fleet to completion with Advance (requires Requests > 0):
// the steady-state loop of "serve traffic, cut, release".
func (f *Fleet) Run() error {
	return f.Drive(f.cfg.Requests, func() (bool, error) {
		st, err := f.Advance()
		return st == StepDone, err
	})
}

// Fail injects one failure and runs its recovery: TargetPower crashes
// every shard and resyncs the whole fleet, TargetCoord kills the
// coordinator (no client state is lost), and a shard index crashes that
// shard and resyncs the keys it owned. A power failure resyncs the fleet
// even when recovery reports an error, so a harness that records the
// error can keep driving.
func (f *Fleet) Fail(target int) error {
	switch target {
	case TargetPower:
		_, err := f.c.PowerFail()
		f.ResyncAll()
		return err
	case TargetCoord:
		return f.c.FailCoordinator()
	default:
		if err := f.c.FailShard(target); err != nil {
			return err
		}
		f.ResyncShard(target)
		return nil
	}
}

// ResyncShard realigns the fleet with shard i after it crashed and
// recovered: the shard's queued frames and unreleased responses are gone,
// so every key it owns (or last sent to) rewinds its send cursor to its
// last acknowledged request and retransmits after a one-RTT timeout. Keys
// on other shards are untouched — the failure is partial, which is the
// point of sharding.
func (f *Fleet) ResyncShard(i int) {
	s := f.c.Shards[i]
	s.Net.OnMachineRestore()
	f.applyAffinity()
	f.Rewind(s.M.Now().Add(s.M.Model.NetRTT), func(j int) bool {
		r := &f.route[j]
		if r.shard != i && r.sentShard != i {
			return false
		}
		r.sentShard = r.shard // the rewound request is re-sent to the owner
		return true
	})
}

// ResyncAll resyncs every shard (after a whole-cluster power failure).
func (f *Fleet) ResyncAll() {
	for i := range f.c.Shards {
		f.ResyncShard(i)
	}
}

// PeekCounter reads key j's stored request counter from its owning shard's
// state (0 when absent): the oracle read the justification
// (CheckJustified) and linearizability checks compare acknowledgements
// against.
func (f *Fleet) PeekCounter(j int) (uint64, error) {
	shard := f.route[j].shard
	v, err := net.PeekCounter(f.c.Shards[shard].Srv, f.Key(j))
	if err != nil {
		return 0, fmt.Errorf("cluster: shard %d: %w", shard, err)
	}
	return v, nil
}

// CheckSoleOwner asserts that no ACKNOWLEDGED request was ever served by a
// shard that was not the key's ring owner. Migrations legitimately leave
// copies behind — stale remnants on old sources, unacknowledged dual-write
// remnants on destinations after an abort rolled the source back — so a
// non-owner copy being fresher than the owner is not by itself damning. The
// two-owner-serve signature is an acknowledged counter value present at a
// non-owner while MISSING at the owner: the client got its receipt from a
// shard the ring did not point at.
func (f *Fleet) CheckSoleOwner() ([]string, error) {
	var bad []string
	for j := 0; j < f.Keys(); j++ {
		key := f.Key(j)
		owner := f.c.Ring.Owner(key)
		ownerVal, err := net.PeekCounter(f.c.Shards[owner].Srv, key)
		if err != nil {
			return nil, fmt.Errorf("cluster: owner %d: %w", owner, err)
		}
		for i, s := range f.c.Shards {
			if i == owner {
				continue
			}
			cv, err := net.PeekCounter(s.Srv, key)
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
			}
			if cv > ownerVal && cv <= f.Acked(j) {
				bad = append(bad, fmt.Sprintf(
					"key %d: acked counter %d lives on shard %d but ring owner %d holds %d",
					j, cv, i, owner, ownerVal))
			}
		}
	}
	return bad, nil
}
