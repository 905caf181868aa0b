package main

import (
	"fmt"
	"time"

	"treesls/internal/apps/kvstore"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/net"
	"treesls/internal/repl"
	"treesls/internal/simclock"
)

// gatedSize sizes a kv-gated episode.
type gatedSize struct {
	conns   int // closed-loop connections, one counter key each
	window  int // per-connection pipeline depth
	preload int // seeded keys installed before the stream
	acks    int // acknowledged requests in the measured stream
}

var gatedFull = gatedSize{conns: 64, window: 2, preload: 1024, acks: 16000}

// kvGated runs the whole single-machine durability path: wire -> kvstore ->
// extsync ring (ADR clwb/sfence) -> commit -> standby ack -> release. The
// measured stream has no crash; one power failure after it exercises
// restore, retransmission and the external-synchrony check.
func kvGated(seed uint64, sz gatedSize, traced bool) (*outcome, error) {
	o := &outcome{sim: map[string]float64{}}
	in := newDigest()
	t0 := time.Now()

	cfg := kernel.DefaultConfig()
	cfg.Cores = 4
	cfg.Seed = seed
	cfg.Mem.Persist = mem.ModeADR
	cfg.Mem.CrashSeed = seed
	cfg.CheckpointEvery = simclock.Millisecond
	m := kernel.New(cfg)
	nw, err := net.New(m, net.Config{Gated: true, RingSlots: 4096})
	if err != nil {
		return nil, err
	}
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "redis", Threads: 4, HeapPages: 1024, Buckets: 256,
		EchoValue: true, Ext: nw.Driver,
	})
	if err != nil {
		return nil, err
	}
	rep := repl.Attach(m, nw.Driver, repl.Config{Mode: repl.ModeRemote})
	// Preload: seeded keys with seeded value sizes, with the fleet's 64
	// counter keys installed at seeded positions among them. Where the
	// counters land in the heap decides how many pages each round dirties.
	in.word(seed) // the machine seed
	r := faultplane.Stream(seed, "preload")
	slots := make([]int, sz.preload+sz.conns)
	for i := range slots {
		slots[i] = -1
	}
	for c := 0; c < sz.conns; c++ {
		for {
			i := r.Intn(len(slots))
			if slots[i] < 0 {
				slots[i] = c
				break
			}
		}
	}
	for i, c := range slots {
		var key, val []byte
		if c >= 0 {
			key, val = []byte(fmt.Sprintf("conn%04d", c)), make([]byte, 64)
		} else {
			key = []byte(fmt.Sprintf("pre-%08x", r.Uint32()))
			val = make([]byte, 16+r.Intn(240))
			for j := range val {
				val[j] = byte(r.Uint32())
			}
		}
		in.bytes(key)
		in.bytes(val)
		if _, err := srv.ApplyAt(0, i%4, key, val); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	fleet, err := net.NewFleet(nw, srv, net.FleetConfig{Clients: sz.conns, Window: sz.window, ValueBytes: 64})
	if err != nil {
		return nil, err
	}
	m.TakeCheckpoint()
	o.setup = time.Since(t0)
	if traced {
		o.tr = newTracer(m.Now)
	}
	tr := o.tr

	var rs rounds
	var ackLags []simclock.Duration
	c0, req0, lag0 := snap(m), nw.Stats.Requests, len(nw.ReleaseLags)
	deltas0, bytes0, full0 := rep.Stats.Deltas, rep.Stats.BytesSent, rep.Stats.FullSyncs
	sim0 := m.Now()
	steps := 0
	w := startWatch()
	for fleet.TotalAcked() < uint64(sz.acks) {
		before := m.Ckpt.Stats.Checkpoints
		sp := tr.begin("net.Fleet.Step", "net", uint64(steps))
		_, err := fleet.Step()
		fired := m.Ckpt.Stats.Checkpoints - before
		if fired > 0 {
			tr.relabel(sp, "kernel.ckpt_step", "kernel")
		}
		tr.end(sp)
		steps++
		if err != nil {
			return nil, err
		}
		switch fired {
		case 0:
		case 1:
			if err := rs.add(m.Ckpt.LastReport); err != nil {
				return nil, err
			}
			led := rep.Ledger()
			e := led[len(led)-1]
			ackLags = append(ackLags, e.AckArrive.Sub(e.Depart))
		default:
			return nil, fmt.Errorf("fleet step %d fired %d checkpoints; their reports cannot be told apart", steps, fired)
		}
	}
	w.stop(o)
	tr.close()
	simEnd := m.Now()
	acked := fleet.TotalAcked()
	o.acked = acked
	lats := append([]simclock.Duration(nil), fleet.Latencies...)
	d := snap(m).sub(c0)
	lags := nw.ReleaseLags[lag0:]
	deltas := rep.Stats.Deltas - deltas0

	// One power failure after the measured stream, a seeded number of
	// steps in so that requests are in flight: restore, then every
	// acknowledgement must be justified by the restored counters, and the
	// retransmitted requests must be served again.
	extra := faultplane.Stream(seed, "crash").Intn(4*sz.conns*sz.window) + 1
	in.word(uint64(extra))
	o.inputs = in.sum()
	for i := 0; i < extra; i++ {
		if _, err := fleet.Step(); err != nil {
			return nil, err
		}
	}
	crashAt := m.Now()
	sp := tr.begin("kernel.Machine.Crash", "kernel", 0)
	m.Crash()
	tr.end(sp)
	sp = tr.begin("checkpoint.Machine.Restore", "checkpoint", 0)
	err = m.Restore()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	restore := m.Now().Sub(crashAt)
	fleet.ResyncAfterRestore()
	if bad, err := fleet.CheckJustified(); err != nil || len(bad) > 0 {
		return nil, fmt.Errorf("after restore: justified check: %v %v", err, bad)
	}
	target := fleet.TotalAcked() + uint64(sz.conns*sz.window)
	for i := 0; fleet.TotalAcked() < target; i++ {
		if i > 1_000_000 {
			return nil, fmt.Errorf("no progress after restore (%d/%d acked)", fleet.TotalAcked(), target)
		}
		if _, err := fleet.Step(); err != nil {
			return nil, fmt.Errorf("after restore: %w", err)
		}
	}
	if bad, err := fleet.CheckJustified(); err != nil || len(bad) > 0 {
		return nil, fmt.Errorf("justified check: %v %v", err, bad)
	}
	if len(fleet.Violations) > 0 || fleet.DupAcks > 0 || nw.Stats.UnknownSeq > 0 {
		return nil, fmt.Errorf("fleet: %d FIFO violations (%v), %d duplicate acks, %d unknown releases",
			len(fleet.Violations), fleet.Violations, fleet.DupAcks, nw.Stats.UnknownSeq)
	}
	o.attempted = nw.Stats.Requests - req0 - fleet.Retransmits

	s := o.sim
	s["sim_set_p50_us"] = us(quantile(lats, 0.50))
	s["sim_set_p99_us"] = us(quantile(lats, 0.99))
	s["sim_kops_per_s"] = per(float64(acked), simEnd.Sub(sim0).Millis())
	s["sim_restore_p50_us"] = us(restore)
	rs.metrics(s)
	d.metrics(s, float64(acked), float64(acked), float64(len(rs.reps)))
	s["checkpoint.backup_pages"] = float64(m.Ckpt.Stats.BackupPages)
	s["net.steps_per_req"] = per(float64(steps), float64(acked))
	s["extsync.release_lag_us_p50"] = us(quantile(lags, 0.50))
	s["extsync.ring_full"] = float64(nw.Driver.Stats.Full)
	s["net.retransmits"] = float64(fleet.Retransmits)
	s["repl.ack_lag_us_p50"] = us(quantile(ackLags, 0.50))
	s["repl.ack_lag_us_p99"] = us(quantile(ackLags, 0.99))
	s["repl.kb_per_delta"] = per(float64(rep.Stats.BytesSent-bytes0)/1024, float64(deltas))
	s["repl.full_syncs"] = float64(rep.Stats.FullSyncs - full0)
	return o, nil
}
