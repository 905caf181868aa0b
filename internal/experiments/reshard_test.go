package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestReshardPauseGate is the bench-regression gate for elastic online
// resharding, and emits BENCH_reshard.json (to $BENCH_RESHARD_OUT when
// set, as in the CI job). The claims under test: a 4-to-5 scale-out under
// steady gated load is a bounded perturbation — p99 latency during the
// migration epoch stays within 5x the steady-state p99, with zero
// stop-the-world window — and the committed fifth shard adds service
// capacity, so post-reshard throughput exceeds pre-reshard throughput.
func TestReshardPauseGate(t *testing.T) {
	s := QuickScale()
	rows, txt, keysMoved, err := ReshardPause(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", txt)

	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, BenchDoc{Figure: "reshard-pause", Scale: s.Name, KeysMoved: &keysMoved, Rows: rows}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		KeysMoved uint64       `json:"keys_moved"`
		Rows      []ReshardRow `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("BENCH_reshard.json does not round-trip: %v", err)
	}
	if len(doc.Rows) != len(rows) || doc.KeysMoved != keysMoved {
		t.Fatalf("JSON lost rows: %d/%d keys=%d/%d", len(doc.Rows), len(rows), doc.KeysMoved, keysMoved)
	}
	if out := os.Getenv("BENCH_RESHARD_OUT"); out != "" {
		if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}

	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (before, during, after)", len(rows))
	}
	before, during, after := rows[0], rows[1], rows[2]
	if keysMoved == 0 {
		t.Fatal("the reshard moved no keys: the figure is vacuous")
	}
	for _, r := range rows {
		if r.Requests == 0 {
			t.Fatalf("%s window: empty latency sample", r.Window)
		}
		if r.OpsPerSec <= 0 {
			t.Fatalf("%s window: non-positive throughput %.1f", r.Window, r.OpsPerSec)
		}
		if r.P50Us <= 0 || r.P99Us < r.P50Us {
			t.Errorf("%s window: bad percentiles p50=%.1f p99=%.1f", r.Window, r.P50Us, r.P99Us)
		}
	}
	// The pause bound: migration streaming and the commit cut may stretch
	// tail latency, but never into a stop-the-world stall.
	if during.P99Us > 5*before.P99Us {
		t.Errorf("during p99 %.1fµs exceeds 5x the steady-state p99 %.1fµs",
			during.P99Us, before.P99Us)
	}
	// The capacity gate: the committed fifth shard must add throughput.
	if after.OpsPerSec <= before.OpsPerSec {
		t.Errorf("post-reshard ops/s %.1f not above pre-reshard %.1f: the fifth shard added nothing",
			after.OpsPerSec, before.OpsPerSec)
	}
}
