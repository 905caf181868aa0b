package experiments

import (
	"fmt"

	"treesls/internal/apps/kvstore"
	"treesls/internal/kernel"
	"treesls/internal/net"
	"treesls/internal/simclock"
)

// NetRow is one (gated, checkpoint interval) point of the network-latency
// figure: client-observed request latency when responses are released at
// the next checkpoint commit (external synchrony) vs straight from the
// server (the crash-unsafe baseline).
type NetRow struct {
	Gated      bool `json:"gated"`
	IntervalUs int  `json:"interval_us"`
	// Client-observed latency percentiles, in microseconds.
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
	// ReleaseLagP50Us is the median time a gated response waited in the
	// ring between the operation's end and its release (0 when ungated).
	ReleaseLagP50Us float64 `json:"release_lag_p50_us"`
	// Requests completed and the simulated completion time.
	Requests int     `json:"requests"`
	SimMs    float64 `json:"sim_ms"`
}

// NetLatency sweeps checkpoint interval × gating and measures what the
// clients see. The expected physics of §5: ungated latency is a few RTTs
// and independent of the interval; gated latency is dominated by the wait
// for the next covering commit, so its median tracks the interval and its
// tail approaches one full interval plus service time.
func NetLatency(s Scale) ([]NetRow, string, error) {
	intervals := []int{500, 1000, 2000, 5000}
	requests := s.KVOps / 40
	if requests < 20 {
		requests = 20
	}
	var rows []NetRow
	for _, interval := range intervals {
		for _, gated := range []bool{false, true} {
			row, err := measureNetPoint(s, interval, gated, requests)
			if err != nil {
				return nil, "", fmt.Errorf("interval=%dµs gated=%v: %w", interval, gated, err)
			}
			rows = append(rows, row)
		}
	}

	header := []string{"Mode", "Interval(µs)", "p50(µs)", "p99(µs)", "ReleaseLag p50(µs)", "Requests"}
	var cells [][]string
	for _, r := range rows {
		mode := "ungated"
		if r.Gated {
			mode = "gated"
		}
		cells = append(cells, []string{
			mode, fmt.Sprintf("%d", r.IntervalUs),
			f1(r.P50Us), f1(r.P99Us), f1(r.ReleaseLagP50Us), fmt.Sprintf("%d", r.Requests),
		})
	}
	return rows, "Request latency vs checkpoint interval: external-synchrony gating (kvstore via simulated network)\n" +
		table(header, cells), nil
}

// measureNetPoint runs one fleet to completion on a fresh machine.
func measureNetPoint(s Scale, intervalUs int, gated bool, requests int) (NetRow, error) {
	row := NetRow{Gated: gated, IntervalUs: intervalUs}
	cfg := kernel.DefaultConfig()
	cfg = s.applyObs(cfg)
	cfg.Cores = 4
	cfg.CheckpointEvery = simclock.Duration(intervalUs) * simclock.Microsecond
	cfg.Seed = 1
	m := kernel.New(cfg)

	nw, err := net.New(m, net.Config{Gated: gated, RingSlots: 4096})
	if err != nil {
		return row, err
	}
	scfg := kvstore.ServerConfig{
		Name:      "redis",
		Threads:   4,
		HeapPages: 1024,
		Buckets:   256,
		EchoValue: true,
	}
	if gated {
		scfg.Ext = nw.Driver
	}
	srv, err := kvstore.NewServer(m, scfg)
	if err != nil {
		return row, err
	}
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
	row.P50Us = percentile(fleet.Latencies, 0.50).Micros()
	row.P99Us = percentile(fleet.Latencies, 0.99).Micros()
	row.Requests = len(fleet.Latencies)
	row.SimMs = m.Now().Sub(start).Millis()
	if gated {
		row.ReleaseLagP50Us = percentile(nw.ReleaseLags, 0.50).Micros()
	}
	return row, nil
}

// FindNetRow returns the row for (gated, intervalUs), or false.
func FindNetRow(rows []NetRow, gated bool, intervalUs int) (NetRow, bool) {
	for _, r := range rows {
		if r.Gated == gated && r.IntervalUs == intervalUs {
			return r, true
		}
	}
	return NetRow{}, false
}
