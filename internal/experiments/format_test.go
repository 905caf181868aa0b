package experiments

import (
	"strings"
	"testing"

	"treesls/internal/simclock"
)

func TestPercentile(t *testing.T) {
	ds := []simclock.Duration{50, 10, 40, 20, 30}
	if p := percentile(ds, 0.0); p != 10 {
		t.Errorf("p0 = %d", p)
	}
	if p := percentile(ds, 0.5); p != 30 {
		t.Errorf("p50 = %d", p)
	}
	if p := percentile(ds, 1.0); p != 50 {
		t.Errorf("p100 = %d", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty = %d", p)
	}
	// Input must not be mutated (sorted copy).
	if ds[0] != 50 {
		t.Error("percentile sorted the caller's slice")
	}
}

func TestMean(t *testing.T) {
	if m := mean([]simclock.Duration{10, 20, 30}); m != 20 {
		t.Errorf("mean = %d", m)
	}
	if m := mean(nil); m != 0 {
		t.Errorf("empty mean = %d", m)
	}
}

func TestTableFormatting(t *testing.T) {
	out := table([]string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"a-much-longer-name", "23456"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// All rows padded to equal prefix width for the first column.
	if !strings.HasPrefix(lines[0], "name              ") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator = %q", lines[1])
	}
	if !strings.Contains(lines[3], "23456") {
		t.Errorf("row = %q", lines[3])
	}
}

func TestScaleHelpers(t *testing.T) {
	if f1(1.25) != "1.2" && f1(1.25) != "1.3" {
		t.Errorf("f1 = %s", f1(1.25))
	}
	if f2(1.234) != "1.23" {
		t.Errorf("f2 = %s", f2(1.234))
	}
	if heapPagesFor(QuickScale(), 1) < 2048 {
		t.Error("heap sizing below floor")
	}
	if heapPagesFor(FullScale(), 2) <= heapPagesFor(FullScale(), 1) {
		t.Error("factor not applied")
	}
}

// TestBenchJSONLayout pins the BENCH_*.json byte layout: field order,
// two-space indent, a trailing newline, and keys_moved present (even at
// zero) only on the reshard document.
func TestBenchJSONLayout(t *testing.T) {
	var b strings.Builder
	zero := uint64(0)
	if err := WriteBenchJSON(&b, BenchDoc{Figure: "reshard-pause", Scale: "quick", KeysMoved: &zero,
		Rows: []ReshardRow{{Window: "before", Shards: 4, OpsPerSec: 1.5, Requests: 10}}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteBenchJSON(&b, BenchDoc{Figure: "net-latency", Scale: "full", Rows: []NetRow(nil)}); err != nil {
		t.Fatal(err)
	}
	want := `{
  "figure": "reshard-pause",
  "scale": "quick",
  "keys_moved": 0,
  "rows": [
    {
      "window": "before",
      "shards": 4,
      "ops_per_sec": 1.5,
      "p50_us": 0,
      "p99_us": 0,
      "requests": 10,
      "sim_ms": 0
    }
  ]
}
{
  "figure": "net-latency",
  "scale": "full",
  "rows": null
}
`
	if got := b.String(); got != want {
		t.Errorf("BENCH layout changed:\n%s\nwant:\n%s", got, want)
	}
}
