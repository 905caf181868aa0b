package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestNetLatencyGate is the bench-regression gate for the simulated
// network's external-synchrony physics, and emits BENCH_net.json (to
// $BENCH_NET_OUT when set, as in the CI job). The expected shape from §5:
// ungated latency is a few RTTs and independent of the checkpoint interval;
// gated latency is dominated by the wait for the next covering commit, so
// its median tracks the interval itself.
func TestNetLatencyGate(t *testing.T) {
	s := QuickScale()
	rows, txt, err := NetLatency(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", txt)

	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, BenchDoc{Figure: "net-latency", Scale: s.Name, Rows: rows}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []NetRow `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("BENCH_net.json does not round-trip: %v", err)
	}
	if len(doc.Rows) != len(rows) {
		t.Fatalf("JSON has %d rows, want %d", len(doc.Rows), len(rows))
	}
	if out := os.Getenv("BENCH_NET_OUT"); out != "" {
		if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}

	intervals := []int{500, 1000, 2000, 5000}
	var ungatedP50s []float64
	var prevGatedP50 float64
	for _, iv := range intervals {
		u, ok1 := FindNetRow(rows, false, iv)
		g, ok2 := FindNetRow(rows, true, iv)
		if !ok1 || !ok2 {
			t.Fatalf("missing rows for interval %dµs", iv)
		}
		if u.Requests == 0 || g.Requests == 0 {
			t.Fatalf("interval %dµs: empty latency sample (u=%d g=%d)", iv, u.Requests, g.Requests)
		}
		// Percentiles are ordered and positive.
		for _, r := range []NetRow{u, g} {
			if r.P50Us <= 0 || r.P99Us < r.P50Us {
				t.Errorf("interval %dµs gated=%v: bad percentiles p50=%.1f p99=%.1f", iv, r.Gated, r.P50Us, r.P99Us)
			}
		}
		// The gate defers responses to the next commit: at least 5x the
		// direct path at every interval.
		if g.P50Us < 5*u.P50Us {
			t.Errorf("interval %dµs: gated p50 %.1fµs not well above ungated %.1fµs", iv, g.P50Us, u.P50Us)
		}
		// The gated median tracks the interval: the closed-loop clients
		// synchronize to the commit cadence.
		lo, hi := 0.5*float64(iv), 1.5*float64(iv)+100
		if g.P50Us < lo || g.P50Us > hi {
			t.Errorf("interval %dµs: gated p50 %.1fµs outside [%.0f, %.0f]µs", iv, g.P50Us, lo, hi)
		}
		if g.P50Us <= prevGatedP50 {
			t.Errorf("interval %dµs: gated p50 %.1fµs not increasing with the interval (prev %.1fµs)",
				iv, g.P50Us, prevGatedP50)
		}
		prevGatedP50 = g.P50Us
		// Only gated responses wait in the ring.
		if g.ReleaseLagP50Us <= 0 {
			t.Errorf("interval %dµs: gated release lag p50 %.1fµs not positive", iv, g.ReleaseLagP50Us)
		}
		if u.ReleaseLagP50Us != 0 {
			t.Errorf("interval %dµs: ungated release lag %.1fµs, want 0", iv, u.ReleaseLagP50Us)
		}
		ungatedP50s = append(ungatedP50s, u.P50Us)
	}
	// Ungated latency is independent of the checkpoint interval (within
	// 10%: checkpoints still steal lane time from request processing).
	lo, hi := ungatedP50s[0], ungatedP50s[0]
	for _, v := range ungatedP50s[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > 1.1*lo {
		t.Errorf("ungated p50 varies with the checkpoint interval: %.1f..%.1fµs", lo, hi)
	}
}
