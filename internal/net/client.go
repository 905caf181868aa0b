package net

import (
	"fmt"

	"treesls/internal/apps/kvstore"
	"treesls/internal/simclock"
)

// FleetConfig sizes a simulated client fleet.
type FleetConfig struct {
	// Clients is the number of concurrent connections (default 4).
	Clients int
	// Requests per client; 0 means unbounded (a harness drives Step
	// itself and decides when to stop).
	Requests int
	// Window is the per-connection pipeline depth (default 4).
	Window int
	// ValueBytes is the SET value size (>= 8; default 64; at most
	// extsync.MaxPayload in gated mode, where the response echoes it).
	ValueBytes int
	// Think is the client pause between an acknowledgement and the next
	// send it unblocks.
	Think simclock.Duration
}

// Fleet drives closed-loop window-pipelined clients against a kvstore
// server through the simulated network: the shared ClientCore with one key
// (conn%04d) per connection, no route header, and — when every window is
// blocked behind gated responses — an idle to the next checkpoint. All
// scheduling is deterministic: Step executes exactly one micro-step chosen
// by simulated-time priority.
type Fleet struct {
	ClientCore
	net        *Network
	srv        *kvstore.Server
	cfg        FleetConfig
	srvThreads int
}

// NewFleet builds the fleet and wires it to the network's receipt hook.
// Server worker threads are pinned round-robin to cores so request steering
// stays deterministic under load.
func NewFleet(n *Network, srv *kvstore.Server, cfg FleetConfig) (*Fleet, error) {
	cfg, err := cfg.Defaulted(n.Gated())
	if err != nil {
		return nil, err
	}
	p := n.Machine().Process(srv.Name())
	if p == nil {
		return nil, fmt.Errorf("net: server process %q not found", srv.Name())
	}
	keys := make([][]byte, cfg.Clients)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("conn%04d", i))
	}
	f := &Fleet{net: n, srv: srv, cfg: cfg, srvThreads: len(p.Threads)}
	f.ClientCore = NewClientCore(cfg, keys,
		func(j int) string { return fmt.Sprintf("conn %d", j) },
		func(j int) (uint64, error) { return PeekCounter(srv, keys[j]) })
	PinWorkers(n.Machine(), srv.Name())
	n.SetOnReceipt(f.Receive)
	if n.Machine().Obs.MetricsOn() {
		n.Machine().Obs.Metrics.GaugeFunc("net.retransmits", func() int64 { return int64(f.Retransmits) })
	}
	return f, nil
}

// Config returns the fleet's (defaulted) configuration.
func (f *Fleet) Config() FleetConfig { return f.cfg }

// dispatch runs the server side of one received frame: the kvstore SET on
// the connection's worker thread, then the response through the gate (or
// straight out when ungated).
func (f *Fleet) dispatch(p Packet, ready simclock.Time) error {
	val := f.Value(p.Conn, p.Req)
	res, seq, err := f.srv.SetAt(ready, p.Conn%f.srvThreads, f.Key(p.Conn), val)
	if err != nil {
		return err
	}
	f.net.Reply(p, res, seq, len(val))
	return nil
}

// Step advances the fleet by one deterministic micro-step: the earlier of
// (earliest queued frame arrival) and (earliest eligible client send) runs;
// if neither exists but acknowledgements are outstanding, the machine idles
// to the next checkpoint so the release-on-commit hook can run (gated mode
// only reaches this when every client is window-blocked). Returns done=true
// once every client has received every configured response.
func (f *Fleet) Step() (bool, error) {
	arriveAt, haveFrame := f.net.NextArrival()
	j, sendAt, haveSender := f.NextSender(f.cfg.Requests)
	if haveFrame && (!haveSender || arriveAt <= sendAt) {
		_, err := f.net.DispatchNext(f.dispatch)
		return false, err
	}
	if haveSender {
		req, at := f.Send(j)
		f.net.SendRequest(j, req, f.WireBytes(j), at)
		return false, nil
	}
	// No frames, no open windows: either everything is done, or gated
	// acknowledgements are parked behind the next commit.
	if f.outstanding() == 0 {
		return f.DoneAll(f.cfg.Requests), nil
	}
	m := f.net.Machine()
	if next := m.NextCheckpointAt(); next > 0 {
		m.SettleTo(next)
	} else {
		m.TakeCheckpoint()
	}
	return false, nil
}

// Run drives Step until every client finishes (requires Requests > 0).
func (f *Fleet) Run() error { return f.Drive(f.cfg.Requests, f.Step) }

// ResyncAfterRestore realigns the fleet with a machine that just crashed
// and restored. In-flight frames and unreleased responses are gone, so each
// client rewinds its send cursor to its last acknowledged request and
// retransmits from there after a one-RTT timeout. Retransmitted SETs are
// idempotent absolute writes, so replay is safe.
func (f *Fleet) ResyncAfterRestore() {
	f.net.OnMachineRestore()
	m := f.net.Machine()
	PinWorkers(m, f.srv.Name())
	f.Rewind(m.Now().Add(m.Model.NetRTT), nil)
}
