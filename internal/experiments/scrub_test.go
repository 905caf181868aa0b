package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestScrubOverheadGate is the bench-regression gate for the media-scrub
// pass: scrubbing a clean persistent world repairs nothing, its cost grows
// with resident state, and the full row set is emitted as BENCH_scrub.json
// (to $BENCH_SCRUB_OUT when set, as in the CI job).
func TestScrubOverheadGate(t *testing.T) {
	s := QuickScale()
	rows, txt, err := ScrubOverhead(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", txt)

	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, BenchDoc{Figure: "scrub-overhead", Scale: s.Name, Rows: rows}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []ScrubRow `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("BENCH_scrub.json does not round-trip: %v", err)
	}
	if len(doc.Rows) != len(rows) {
		t.Fatalf("JSON has %d rows, want %d", len(doc.Rows), len(rows))
	}
	if out := os.Getenv("BENCH_SCRUB_OUT"); out != "" {
		if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}

	sizes := []int{s.KVOps / 8, s.KVOps / 2, s.KVOps}
	for _, replicas := range []int{0, 2} {
		var prev ScrubRow
		for i, keys := range sizes {
			r, ok := FindScrubRow(rows, replicas, keys)
			if !ok {
				t.Fatalf("missing row replicas=%d keys=%d", replicas, keys)
			}
			// A clean tree must scrub clean: zero repairs, zero
			// unrepairable, zero quarantines — anything else means the
			// checksum machinery flags pristine data.
			if r.Repaired != 0 || r.Unrepairable != 0 {
				t.Errorf("replicas=%d keys=%d: clean scrub reported repaired=%d unrepairable=%d",
					replicas, keys, r.Repaired, r.Unrepairable)
			}
			if r.PagesChecked == 0 || r.RecordsChecked == 0 || r.ScrubUs <= 0 {
				t.Errorf("replicas=%d keys=%d: empty scrub pass: %+v", replicas, keys, r)
			}
			// The pass must cover at least the resident app pages a
			// restore would read.
			if r.PagesChecked < r.AppPages {
				t.Errorf("replicas=%d keys=%d: checked %d pages, below %d resident",
					replicas, keys, r.PagesChecked, r.AppPages)
			}
			// Cost grows strictly with resident state.
			if i > 0 && r.ScrubUs <= prev.ScrubUs {
				t.Errorf("replicas=%d: scrub cost not increasing: %d keys %.1fµs vs %d keys %.1fµs",
					replicas, keys, r.ScrubUs, prev.Keys, prev.ScrubUs)
			}
			prev = r
		}
	}
}
