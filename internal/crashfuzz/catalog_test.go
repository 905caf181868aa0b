package crashfuzz

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOracleCatalog pins the catalog's shape: every campaign (legacy and
// composed) is present, and the composed campaigns carry their overlay
// oracles appended to the base registry.
func TestOracleCatalog(t *testing.T) {
	sets, err := OracleCatalog()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OracleSet{}
	for _, s := range sets {
		byName[s.Campaign] = s
		if len(s.Oracles) == 0 {
			t.Errorf("%s: empty oracle registry", s.Campaign)
		}
	}
	for _, want := range []string{
		"crash", "net", "media", "repl", "cluster", "reshard",
		"media x reshard", "repl x cluster", "media x repl",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("catalog missing campaign %q", want)
		}
	}
	has := func(campaign, oracle string) bool {
		for _, o := range byName[campaign].Oracles {
			if o == oracle {
				return true
			}
		}
		return false
	}
	if !has("cluster", "cut-verified") || !has("reshard", "cut-verified") {
		t.Error("cluster-family campaigns must register cut-verified")
	}
	if !has("repl x cluster", "standby-promotable") {
		t.Error("repl overlay must append standby-promotable to the cluster registry")
	}
	if !has("media x repl", "restored-digest") {
		t.Error("media overlay must append restored-digest to the repl registry")
	}
	if byName["media x reshard"].Domain != "reshard+media" {
		t.Errorf("composed domain name %q, want reshard+media", byName["media x reshard"].Domain)
	}
}

// TestREADMEOracleTable holds the README's "Campaign | Domain | Oracles"
// table to the live catalog: one row per campaign, in catalog order, with
// the exact domain name and oracle run order each world registers.
func TestREADMEOracleTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []OracleSet
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "| Campaign | Domain | Oracles"):
			inTable = true
		case !inTable || strings.HasPrefix(line, "|---"):
		case !strings.HasPrefix(line, "|"):
			inTable = false
		default:
			cells := strings.Split(strings.Trim(line, "|"), "|")
			if len(cells) != 3 {
				t.Fatalf("README oracle row %q: %d cells, want 3", line, len(cells))
			}
			rows = append(rows, OracleSet{
				Campaign: strings.ReplaceAll(strings.TrimSpace(cells[0]), "×", "x"),
				Domain:   strings.Trim(strings.TrimSpace(cells[1]), "`"),
				Oracles:  strings.Split(strings.TrimSpace(cells[2]), ", "),
			})
		}
	}
	sets, err := OracleCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sets) {
		t.Fatalf("README oracle table has %d rows, the catalog %d campaigns", len(rows), len(sets))
	}
	for i, want := range sets {
		if !reflect.DeepEqual(rows[i], want) {
			t.Errorf("README oracle row %d:\n got  %+v\n want %+v", i, rows[i], want)
		}
	}
}
