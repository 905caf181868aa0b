package experiments

import (
	"fmt"

	"treesls/internal/apps/kvstore"
	"treesls/internal/kernel"
	"treesls/internal/net"
	"treesls/internal/repl"
	"treesls/internal/simclock"
)

// ReplRow is one (mode, checkpoint interval) point of the replication-lag
// figure: how far the hot standby trails the primary's commits, and what the
// remote durability contract costs the clients.
type ReplRow struct {
	Mode       string `json:"mode"` // "local" or "remote"
	IntervalUs int    `json:"interval_us"`
	// Replication lag percentiles: delta departure to standby-ack arrival,
	// in microseconds.
	LagP50Us float64 `json:"lag_p50_us"`
	LagP99Us float64 `json:"lag_p99_us"`
	// Delta traffic over the run.
	Deltas      int     `json:"deltas"`
	FullSyncs   int     `json:"full_syncs"`
	BytesSent   int     `json:"bytes_sent"`
	DeltaKBMean float64 `json:"delta_kb_mean"`
	// Client-observed (gated) request latency percentiles, in microseconds.
	ClientP50Us float64 `json:"client_p50_us"`
	ClientP99Us float64 `json:"client_p99_us"`
	// Requests completed and the simulated completion time.
	Requests int     `json:"requests"`
	SimMs    float64 `json:"sim_ms"`
}

// ReplLag sweeps checkpoint interval × replication mode over the gated
// kvstore fleet. The expected physics: the standby ack trails each commit by
// wire plus apply time, so the lag tracks the delta size (which grows with
// the interval as more dirty pages accumulate per round); in local mode the
// clients pay only the external-synchrony wait for the covering commit,
// while in remote mode every gated response additionally rides out the
// standby acknowledgement, so the remote client median sits at or above the
// local one at every interval.
func ReplLag(s Scale) ([]ReplRow, string, error) {
	intervals := []int{500, 1000, 2000, 5000}
	requests := s.KVOps / 40
	if requests < 20 {
		requests = 20
	}
	var rows []ReplRow
	for _, interval := range intervals {
		for _, mode := range []repl.Mode{repl.ModeLocal, repl.ModeRemote} {
			row, err := measureReplPoint(s, interval, mode, requests)
			if err != nil {
				return nil, "", fmt.Errorf("interval=%dµs mode=%v: %w", interval, mode, err)
			}
			rows = append(rows, row)
		}
	}

	header := []string{"Mode", "Interval(µs)", "Lag p50(µs)", "Lag p99(µs)", "Δ mean(KB)", "Deltas", "Full", "Client p50(µs)", "Client p99(µs)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Mode, fmt.Sprintf("%d", r.IntervalUs),
			f1(r.LagP50Us), f1(r.LagP99Us), f1(r.DeltaKBMean),
			fmt.Sprintf("%d", r.Deltas), fmt.Sprintf("%d", r.FullSyncs),
			f1(r.ClientP50Us), f1(r.ClientP99Us),
		})
	}
	return rows, "Replication lag vs checkpoint interval: hot-standby delta stream (kvstore via simulated network)\n" +
		table(header, cells), nil
}

// measureReplPoint runs one gated fleet to completion with a replicator
// attached, on a fresh machine.
func measureReplPoint(s Scale, intervalUs int, mode repl.Mode, requests int) (ReplRow, error) {
	row := ReplRow{Mode: mode.String(), IntervalUs: intervalUs}
	cfg := kernel.DefaultConfig()
	cfg = s.applyObs(cfg)
	cfg.Cores = 4
	cfg.CheckpointEvery = simclock.Duration(intervalUs) * simclock.Microsecond
	cfg.Seed = 1
	m := kernel.New(cfg)

	nw, err := net.New(m, net.Config{Gated: true, RingSlots: 4096})
	if err != nil {
		return row, err
	}
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name:      "redis",
		Threads:   4,
		HeapPages: 1024,
		Buckets:   256,
		EchoValue: true,
		Ext:       nw.Driver,
	})
	if err != nil {
		return row, err
	}
	rep := repl.Attach(m, nw.Driver, repl.Config{Mode: mode})
	clients := s.Clients
	if clients <= 0 {
		clients = 8
	}
	fleet, err := net.NewFleet(nw, srv, net.FleetConfig{
		Clients:    clients,
		Requests:   requests,
		Window:     2,
		ValueBytes: 64,
	})
	if err != nil {
		return row, err
	}
	m.TakeCheckpoint()
	start := m.Now()
	if err := fleet.Run(); err != nil {
		return row, err
	}
	row.ClientP50Us = percentile(fleet.Latencies, 0.50).Micros()
	row.ClientP99Us = percentile(fleet.Latencies, 0.99).Micros()
	row.Requests = len(fleet.Latencies)
	row.SimMs = m.Now().Sub(start).Millis()

	var lags []simclock.Duration
	for _, e := range rep.Ledger() {
		lags = append(lags, e.AckArrive.Sub(e.Depart))
	}
	row.LagP50Us = percentile(lags, 0.50).Micros()
	row.LagP99Us = percentile(lags, 0.99).Micros()
	row.Deltas = int(rep.Stats.Deltas)
	row.FullSyncs = int(rep.Stats.FullSyncs)
	row.BytesSent = int(rep.Stats.BytesSent)
	if rep.Stats.Deltas > 0 {
		row.DeltaKBMean = float64(rep.Stats.BytesSent) / float64(rep.Stats.Deltas) / 1024
	}
	return row, nil
}

// FindReplRow returns the row for (mode, intervalUs), or false.
func FindReplRow(rows []ReplRow, mode string, intervalUs int) (ReplRow, bool) {
	for _, r := range rows {
		if r.Mode == mode && r.IntervalUs == intervalUs {
			return r, true
		}
	}
	return ReplRow{}, false
}
