package experiments

import (
	"fmt"

	"treesls/internal/cluster"
	"treesls/internal/simclock"
)

// ClusterRow is one shard-count point of the cluster-scaling figure:
// aggregate gated throughput of a sharded TreeSLS cluster whose responses
// release only after the covering cluster cut is announced.
type ClusterRow struct {
	Shards int `json:"shards"`
	Cores  int `json:"cores_per_shard"`
	// OpsPerSec is aggregate acknowledged requests per simulated second.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Client-observed latency percentiles, in microseconds.
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	// Requests completed, cluster rounds (cuts) taken, and simulated time.
	Requests int     `json:"requests"`
	Rounds   uint64  `json:"rounds"`
	SimMs    float64 `json:"sim_ms"`
}

// ClusterScaling sweeps the shard count under a fixed offered load. Each
// shard spends PerOpCompute of lane time per request, so a single shard
// saturates on compute; consistent-hash partitioning spreads the keyspace,
// and aggregate gated throughput should grow with the shard count even
// though every response still waits for a cluster-wide cut.
func ClusterScaling(s Scale) ([]ClusterRow, string, error) {
	shardCounts := []int{1, 2, 4}
	clients := s.Clients
	if clients < 8 {
		clients = 8
	}
	requests := s.KVOps / (clients * 4 * 10)
	if requests < 4 {
		requests = 4
	}
	var rows []ClusterRow
	for _, shards := range shardCounts {
		row, err := measureClusterPoint(shards, clients, requests)
		if err != nil {
			return nil, "", fmt.Errorf("shards=%d: %w", shards, err)
		}
		rows = append(rows, row)
	}

	header := []string{"Shards", "Cores/shard", "Ops/s", "p50(µs)", "p95(µs)", "Requests", "Rounds"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Shards), fmt.Sprintf("%d", r.Cores),
			f1(r.OpsPerSec), f1(r.P50Us), f1(r.P95Us),
			fmt.Sprintf("%d", r.Requests), fmt.Sprintf("%d", r.Rounds),
		})
	}
	return rows, "Cluster scaling: aggregate gated throughput vs shard count (consistent-cut release)\n" +
		table(header, cells), nil
}

// measureClusterPoint runs one fixed fleet against a fresh cluster.
func measureClusterPoint(shards, clients, requests int) (ClusterRow, error) {
	row := ClusterRow{Shards: shards, Cores: 2}
	c, err := cluster.New(cluster.Config{
		Shards:       shards,
		Cores:        row.Cores,
		Gated:        true,
		Seed:         1,
		PerOpCompute: 50 * simclock.Microsecond,
	})
	if err != nil {
		return row, err
	}
	fleet, err := cluster.NewFleet(c, cluster.FleetConfig{
		Clients:       clients,
		KeysPerClient: 4,
		Requests:      requests,
		Window:        4,
		ValueBytes:    64,
		Seed:          1,
	})
	if err != nil {
		return row, err
	}
	start := c.Now()
	if err := fleet.Run(); err != nil {
		return row, err
	}
	elapsed := c.Now().Sub(start)
	row.Requests = len(fleet.Latencies)
	row.Rounds = c.Stats.Rounds
	row.SimMs = elapsed.Millis()
	if secs := elapsed.Millis() / 1000; secs > 0 {
		row.OpsPerSec = float64(row.Requests) / secs
	}
	row.P50Us = percentile(fleet.Latencies, 0.50).Micros()
	row.P95Us = percentile(fleet.Latencies, 0.95).Micros()
	return row, nil
}
