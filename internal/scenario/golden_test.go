package scenario

// Cross-commit goldens for the scenario event logs. TestScenarioDeterminism
// only compares two runs of the same build against each other; these pin
// every TestScenarioTable and TestReshardClean script's Digest, Events and
// Acked — machine and cluster worlds alike — to the values the harness
// produced before the client-core refactor, so a change in any
// acknowledgement, crash instant or final counter fails here.
//
// To re-capture after an INTENTIONAL behaviour change (never for a
// refactor), run with MIGRATION_CAPTURE=1 and paste the logged literals.

import (
	"os"
	"testing"
)

type scenarioGolden struct {
	Digest uint64
	Events uint64
	Acked  uint64
}

var scenarioGoldens = map[string]scenarioGolden{
	// Machine world.
	"single-early-crash": {Digest: 0x222b153cd783bc6d, Events: 67, Acked: 12},
	"mid-run-crash":      {Digest: 0x9094d614dff793f5, Events: 131, Acked: 24},
	"double-crash":       {Digest: 0x395f84c684da4466, Events: 131, Acked: 24},
	"crash-storm":        {Digest: 0xc147263251e67004, Events: 122, Acked: 20},
	"wide-window":        {Digest: 0x58f76f12db53f4f8, Events: 221, Acked: 32},
	"many-clients":       {Digest: 0x4f9b7cbc61f25c04, Events: 211, Acked: 40},
	"slow-interval":      {Digest: 0x796fe7b32fb8f32d, Events: 96, Acked: 18},
	"fast-interval":      {Digest: 0xd6650c2863c3e2af, Events: 96, Acked: 18},
	"manual-checkpoints": {Digest: 0xa2491280d9f5dfd8, Events: 67, Acked: 12},
	"late-crash":         {Digest: 0xd5ecdb84081d1e8, Events: 60, Acked: 12},
	// Cluster world.
	"early-power":          {Digest: 0xf5ba326f8287f31f, Events: 174, Acked: 24},
	"mid-shard0":           {Digest: 0x8d625f9a7e7c11e7, Events: 170, Acked: 24},
	"mid-shard1":           {Digest: 0x875d52e90f4d75f9, Events: 176, Acked: 24},
	"coordinator-loss":     {Digest: 0x5f72a8545a18406a, Events: 162, Acked: 24},
	"coord-then-power":     {Digest: 0x3142e1ac1641f073, Events: 179, Acked: 24},
	"shard-storm":          {Digest: 0x35979d510313a39d, Events: 262, Acked: 36},
	"double-power":         {Digest: 0xe7003331f8a3e7e9, Events: 197, Acked: 24},
	"adr-power":            {Digest: 0xb05604d38d30b3cd, Events: 166, Acked: 24},
	"adr-shard":            {Digest: 0xcfb16106975909a, Events: 161, Acked: 24},
	"replicated-power":     {Digest: 0x18004cf514c5045d, Events: 177, Acked: 24},
	"four-shards":          {Digest: 0xc7aa979360ab070f, Events: 321, Acked: 48},
	"back-to-back":         {Digest: 0xe530a8e64398a5f4, Events: 167, Acked: 24},
	"reshard/add-shard":    {Digest: 0x7daff7fb69d37669, Events: 113, Acked: 12},
	"reshard/remove-shard": {Digest: 0x1e916fd5eb5f1e5d, Events: 103, Acked: 12},
	"reshard/back-to-back": {Digest: 0xd7145048d4e3b033, Events: 148, Acked: 16},
}

func checkScenarioGolden(t *testing.T, name string, r Result) {
	t.Helper()
	got := scenarioGolden{Digest: r.Digest, Events: r.Events, Acked: r.Acked}
	if os.Getenv("MIGRATION_CAPTURE") != "" {
		t.Logf("golden %q: {Digest: %#x, Events: %d, Acked: %d},", name, got.Digest, got.Events, got.Acked)
		return
	}
	want, ok := scenarioGoldens[name]
	if !ok {
		t.Fatalf("%s: no golden recorded", name)
	}
	if got != want {
		t.Errorf("%s diverged from its golden:\n got  %+v\n want %+v", name, got, want)
	}
}
