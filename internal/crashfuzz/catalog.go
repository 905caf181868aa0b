package crashfuzz

// The oracle catalog: which named invariants judge each campaign domain.
// The catalog is built by constructing a real (minimal) world per domain
// and reading its registry, so it can never drift from what the campaigns
// actually register — treesls-inspect renders it, and the README table is
// checked against it.

import (
	"fmt"

	"treesls/internal/faultplane"
)

// OracleSet names one campaign domain and its oracle registry in run order.
type OracleSet struct {
	Campaign string
	Domain   string
	Oracles  []string
}

// OracleCatalog builds a throwaway world for every campaign — the six
// legacy domains and the three composed ones — and reports each registry's
// oracle names in registration order.
func OracleCatalog() ([]OracleSet, error) {
	media := &mediaOverlay{faultsPerVictim: 1, res: &MediaOverlayResult{}}
	entries := []struct {
		campaign string
		domain   faultplane.Domain
	}{
		{"crash", Config{}.domain(nil, &Result{})},
		{"net", NetConfig{}.domain(&NetResult{})},
		{"media", MediaConfig{}.domain(&MediaResult{})},
		{"repl", ReplConfig{}.domain(&ReplResult{})},
		{"cluster", ClusterConfig{}.domain(&ClusterResult{})},
		{"reshard", ReshardConfig{}.domain(&ReshardResult{})},
		{"media x reshard", faultplane.Compose(ReshardConfig{Replicas: 2}.domain(&ReshardResult{}), media)},
		{"repl x cluster", faultplane.Compose(ClusterConfig{Replicate: true}.domain(&ClusterResult{}),
			&replOverlay{res: &ReplProbeResult{}})},
		{"media x repl", faultplane.Compose(ReplConfig{Replicas: 2}.domain(&ReplResult{}), media)},
	}
	out := make([]OracleSet, 0, len(entries))
	for _, e := range entries {
		w, err := e.domain.Build(1, faultplane.Stream(1, e.domain.StreamLabel()))
		if err != nil {
			return nil, fmt.Errorf("catalog: building %s world: %w", e.campaign, err)
		}
		out = append(out, OracleSet{
			Campaign: e.campaign,
			Domain:   e.domain.Name(),
			Oracles:  w.Oracles().Names(),
		})
	}
	return out, nil
}
