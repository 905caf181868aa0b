package experiments

import (
	"fmt"

	"treesls/internal/kernel"
	"treesls/internal/simclock"
)

// ScalingRow is one (core count, walk mode) point of the walk-scaling
// figure: the STW distribution and the capability-tree contribution when
// the same workload is checkpointed with the serial reference walk vs the
// parallel work-queue walk.
type ScalingRow struct {
	Cores  int  `json:"cores"`
	Serial bool `json:"serial"`
	// Hybrid selects the copy variant measured: with hybrid copy on, the
	// non-leader lanes have copy work queued behind their walk share, so
	// the figure shows the walk/copy scheduling tradeoff; with it off the
	// STW pause isolates exactly the phase this walk parallelizes.
	Hybrid bool `json:"hybrid"`
	// Microseconds over the measured incremental checkpoints.
	STWp50Us   float64 `json:"stw_p50_us"`
	STWp99Us   float64 `json:"stw_p99_us"`
	CapTreeUs  float64 `json:"captree_us"`   // mean leader walk span
	WalkWorkUs float64 `json:"walk_work_us"` // mean total charged walk work
	Rounds     int     `json:"rounds"`
}

// WalkScaling measures STW vs core count for the serial and parallel walks
// on the Redis-shaped workload (the fig9 rig with the largest capability
// tree: 16 server threads, 8 checkpointed clients). For each point the same
// seeded load runs under 1000 Hz checkpointing; only the core count and the
// walk mode vary.
func WalkScaling(s Scale) ([]ScalingRow, string, error) {
	var rows []ScalingRow
	for _, hybrid := range []bool{false, true} {
		for _, cores := range []int{1, 2, 4, 8} {
			for _, serial := range []bool{true, false} {
				cfg := kernel.DefaultConfig()
				cfg = s.applyObs(cfg)
				cfg.Cores = cores
				cfg.CheckpointEvery = simclock.Millisecond
				cfg.Checkpoint.HybridCopy = hybrid
				cfg.Checkpoint.ParallelWalk = !serial
				r, err := rigRedis(func() *kernel.Machine { return kernel.New(cfg) }, s)
				if err != nil {
					return nil, "", fmt.Errorf("hybrid=%v cores=%d serial=%v: %w", hybrid, cores, serial, err)
				}
				row, err := measureScalingPoint(&r.rig, cores, serial, s)
				if err != nil {
					return nil, "", err
				}
				row.Hybrid = hybrid
				rows = append(rows, row)
			}
		}
	}

	header := []string{"Copy", "Cores", "Walk", "STW p50(µs)", "STW p99(µs)", "CapTree(µs)", "WalkWork(µs)"}
	var cells [][]string
	for _, r := range rows {
		walk := "parallel"
		if r.Serial {
			walk = "serial"
		}
		copyv := "cow"
		if r.Hybrid {
			copyv = "hybrid"
		}
		cells = append(cells, []string{
			copyv, fmt.Sprintf("%d", r.Cores), walk,
			f1(r.STWp50Us), f1(r.STWp99Us), f1(r.CapTreeUs), f1(r.WalkWorkUs),
		})
	}
	return rows, "Walk scaling: STW vs core count, serial vs parallel capability-tree walk (Redis rig, 1000 Hz)\n" + table(header, cells), nil
}

// measureScalingPoint warms the rig up past its full checkpoints, then
// collects per-checkpoint reports for the scale's run window.
func measureScalingPoint(r *rig, cores int, serial bool, s Scale) (ScalingRow, error) {
	row := ScalingRow{Cores: cores, Serial: serial}
	warm := r.M.Now().Add(2 * simclock.Millisecond)
	if err := r.runUntil(warm); err != nil {
		return row, fmt.Errorf("cores=%d serial=%v warmup: %w", cores, serial, err)
	}
	var stws []simclock.Duration
	var capTree, walkWork simclock.Duration
	seen := r.M.Stats.Checkpoints
	deadline := r.M.Now().Add(simclock.Duration(s.RunMillis) * simclock.Millisecond)
	for r.M.Now() < deadline {
		if err := r.Step(); err != nil {
			return row, fmt.Errorf("cores=%d serial=%v: %w", cores, serial, err)
		}
		if r.M.Stats.Checkpoints > seen {
			seen = r.M.Stats.Checkpoints
			rep := r.M.Ckpt.LastReport
			stws = append(stws, rep.STWTotal)
			capTree += rep.CapTree
			walkWork += rep.WalkWork
			row.Rounds++
		}
	}
	if row.Rounds == 0 {
		return row, fmt.Errorf("cores=%d serial=%v: no checkpoints measured", cores, serial)
	}
	row.STWp50Us = percentile(stws, 0.50).Micros()
	row.STWp99Us = percentile(stws, 0.99).Micros()
	row.CapTreeUs = (capTree / simclock.Duration(row.Rounds)).Micros()
	row.WalkWorkUs = (walkWork / simclock.Duration(row.Rounds)).Micros()
	return row, nil
}

// FindScalingRow returns the row for (hybrid, cores, serial), or false.
func FindScalingRow(rows []ScalingRow, hybrid bool, cores int, serial bool) (ScalingRow, bool) {
	for _, r := range rows {
		if r.Hybrid == hybrid && r.Cores == cores && r.Serial == serial {
			return r, true
		}
	}
	return ScalingRow{}, false
}
