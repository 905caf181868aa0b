package scenario

// Cross-commit goldens for the scenario event logs. TestScenarioDeterminism
// only compares two runs of the same build against each other; these pin
// every TestScenarioTable script's Digest, Events and Acked to the values
// the harness produced before the client-core refactor, so a change in
// any acknowledgement, crash instant or final counter fails here.
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
