package crashfuzz

// Migration regression for the fault-plane refactor: each legacy campaign
// is pinned bit-for-bit — the full Result struct plus an FNV-1a digest of
// its Go literal — for fixed seeds and fully-explicit configs (every knob
// set, so no Defaults change can shift them). The goldens were captured on
// the pre-refactor silo engines; the refactored engines must reproduce the
// exact same injection counts and digests or this test fails.
//
// To re-capture after an INTENTIONAL behavior change (never for the
// refactor itself), run with MIGRATION_CAPTURE=1 and paste the logged
// literals.

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"treesls/internal/checkpoint"
	"treesls/internal/faultplane"
	"treesls/internal/mem"
)

// resultDigest folds a campaign Result's Go literal into a 64-bit FNV-1a
// digest — the "same seeds, same digest" half of the migration contract.
func resultDigest(v interface{}) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", v)
	return h.Sum64()
}

func checkGolden(t *testing.T, name string, got interface{}, want interface{}, wantDigest uint64) {
	t.Helper()
	if os.Getenv("MIGRATION_CAPTURE") != "" {
		t.Logf("golden %s: %#v", name, got)
		t.Logf("golden %s digest: %#x", name, resultDigest(got))
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s diverged from pre-refactor golden:\n got  %#v\n want %#v", name, got, want)
	}
	if d := resultDigest(got); d != wantDigest {
		t.Errorf("%s digest %#x, want %#x", name, d, wantDigest)
	}
}

func TestMigrationCrashGolden(t *testing.T) {
	for _, tc := range []struct {
		mode       mem.PersistMode
		want       Result
		wantDigest uint64
	}{
		{mode: mem.ModeADR, want: crashGoldenADR, wantDigest: crashGoldenADRDigest},
		{mode: mem.ModeEADR, want: crashGoldenEADR, wantDigest: crashGoldenEADRDigest},
	} {
		res, err := Run(faultplane.Spec{Seeds: []uint64{101, 102}, RoundsPerSeed: 10}, Config{
			Mode:          tc.mode,
			EventWindow:   96,
			StepsPerCrash: 400,
			Pages:         32,
			Threads:       4,
			Audit:         true,
			SerialWalk:    false,
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		checkGolden(t, fmt.Sprintf("crash/%v", tc.mode), res, tc.want, tc.wantDigest)
	}
}

func TestMigrationNetGolden(t *testing.T) {
	res, err := RunNet(faultplane.Spec{Seeds: []uint64{201}, RoundsPerSeed: 6}, NetConfig{
		Mode:          mem.ModeADR,
		EventWindow:   64,
		StepsPerCrash: 600,
		Clients:       3,
		Window:        2,
		IntervalUs:    200,
		ProgressSteps: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "net", res, netGolden, netGoldenDigest)
}

func TestMigrationMediaGolden(t *testing.T) {
	res, err := RunMedia(faultplane.Spec{Seeds: []uint64{301}, RoundsPerSeed: 12}, MediaConfig{
		Mode:               mem.ModeADR,
		Method:             checkpoint.MethodCOW,
		HybridCopy:         false,
		Pages:              24,
		Threads:            2,
		CrashFaults:        2,
		Replicas:           2,
		DisableChecksums:   false,
		CrashDuringRestore: true,
		ScrubEveryN:        3,
		Audit:              true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "media", res, mediaGolden, mediaGoldenDigest)
}

func TestMigrationReplGolden(t *testing.T) {
	res, err := RunRepl(faultplane.Spec{Seeds: []uint64{401}, RoundsPerSeed: 4}, ReplConfig{
		Mode:           mem.ModeADR,
		Method:         checkpoint.MethodCOW,
		Hybrid:         false,
		EventWindow:    96,
		StepsPerCrash:  40,
		WritesPerRound: 6,
		FullSyncEvery:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "repl", res, replGolden, replGoldenDigest)
}

func TestMigrationClusterGolden(t *testing.T) {
	res, err := RunCluster(faultplane.Spec{Seeds: []uint64{501}, RoundsPerSeed: 8}, ClusterConfig{
		Mode:          mem.ModeADR,
		Shards:        2,
		EventWindow:   40,
		StepsPerCrash: 800,
		Clients:       2,
		KeysPerClient: 2,
		Window:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster", res, clusterGolden, clusterGoldenDigest)
}

func TestMigrationReshardGolden(t *testing.T) {
	res, err := RunReshard(faultplane.Spec{Seeds: []uint64{601}, RoundsPerSeed: 4}, ReshardConfig{
		Mode:          mem.ModeADR,
		Shards:        3,
		StepsPerCrash: 4000,
		Clients:       2,
		KeysPerClient: 2,
		Window:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reshard", res, reshardGolden, reshardGoldenDigest)
}
