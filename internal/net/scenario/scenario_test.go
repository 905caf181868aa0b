package scenario

import (
	"testing"
)

// assertSafe applies the invariants every gated run must satisfy.
func assertSafe(t *testing.T, sc Script, r Result) {
	t.Helper()
	want := uint64(sc.Clients * sc.Requests)
	if r.Acked != want {
		t.Errorf("%s: acked %d, want %d", sc.Name, r.Acked, want)
	}
	if len(r.Unjustified) != 0 {
		t.Errorf("%s: external-synchrony violations: %v", sc.Name, r.Unjustified)
	}
	if len(r.OrderViolations) != 0 {
		t.Errorf("%s: per-connection FIFO violations: %v", sc.Name, r.OrderViolations)
	}
	if r.DupAcks != 0 {
		t.Errorf("%s: %d duplicate acknowledgements (gated path must not re-release)", sc.Name, r.DupAcks)
	}
	if r.AuditViolations != 0 {
		t.Errorf("%s: %d state-digest audit violations", sc.Name, r.AuditViolations)
	}
	if r.Crashes != len(sc.CrashAtEvents) {
		t.Errorf("%s: %d crashes fired, scripted %d", sc.Name, r.Crashes, len(sc.CrashAtEvents))
	}
}

func TestCleanGatedRun(t *testing.T) {
	sc := Script{Name: "clean", Seed: 1, Clients: 4, Requests: 10, Window: 3, Gated: true}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertSafe(t, sc, r)
	if r.Released < r.Acked {
		t.Errorf("released %d < acked %d: some acknowledgements bypassed the gate", r.Released, r.Acked)
	}
	if r.Retransmits != 0 || r.DroppedRequests != 0 || r.DroppedResponses != 0 {
		t.Errorf("clean run saw crash artifacts: retrans=%d dropreq=%d dropresp=%d",
			r.Retransmits, r.DroppedRequests, r.DroppedResponses)
	}
	if r.Checkpoints == 0 {
		t.Error("gated run completed without a single checkpoint")
	}
}

// TestScenarioTable runs gated crash scripts across seeds, client counts,
// window depths, checkpoint intervals, and crash placements. Every one must
// uphold the invariant: client-visible responses are exactly a prefix of
// what the restored state justifies.
func TestScenarioTable(t *testing.T) {
	scripts := []Script{
		{Name: "single-early-crash", Seed: 1, Clients: 2, Requests: 6, Window: 2, Gated: true,
			CrashAtEvents: []uint64{5}},
		{Name: "mid-run-crash", Seed: 2, Clients: 3, Requests: 8, Window: 2, Gated: true,
			CrashAtEvents: []uint64{40}},
		{Name: "double-crash", Seed: 3, Clients: 3, Requests: 8, Window: 2, Gated: true,
			CrashAtEvents: []uint64{20, 70}},
		{Name: "crash-storm", Seed: 4, Clients: 2, Requests: 10, Window: 2, Gated: true,
			CrashAtEvents: []uint64{10, 30, 50, 80, 120}},
		{Name: "wide-window", Seed: 5, Clients: 4, Requests: 8, Window: 6, Gated: true,
			CrashAtEvents: []uint64{60}},
		{Name: "many-clients", Seed: 6, Clients: 8, Requests: 5, Window: 2, Cores: 8, Gated: true,
			CrashAtEvents: []uint64{90}},
		{Name: "slow-interval", Seed: 7, Clients: 3, Requests: 6, Window: 2, IntervalUs: 5000, Gated: true,
			CrashAtEvents: []uint64{35}},
		{Name: "fast-interval", Seed: 8, Clients: 3, Requests: 6, Window: 2, IntervalUs: 200, Gated: true,
			CrashAtEvents: []uint64{35}},
		{Name: "manual-checkpoints", Seed: 9, Clients: 2, Requests: 6, Window: 2, IntervalUs: -1, Gated: true,
			CrashAtEvents: []uint64{25}},
		{Name: "late-crash", Seed: 10, Clients: 2, Requests: 6, Window: 2, Gated: true,
			CrashAtEvents: []uint64{55}},
	}
	for _, sc := range scripts {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			assertSafe(t, sc, r)
			checkScenarioGolden(t, sc.Name, r)
		})
	}
}

// TestCrashAtEveryEvent sweeps a small gated script's entire event space:
// power fails at every single network-event boundary in turn, and the
// invariant must hold at each one.
func TestCrashAtEveryEvent(t *testing.T) {
	base := Script{Name: "sweep", Seed: 11, Clients: 2, Requests: 4, Window: 2, Gated: true}
	total, err := EventCount(base)
	if err != nil {
		t.Fatal(err)
	}
	if total < 20 {
		t.Fatalf("clean run generated only %d events; sweep would be vacuous", total)
	}
	stride := uint64(1)
	if testing.Short() {
		stride = 5
	}
	for k := uint64(1); k <= total; k += stride {
		sc := base
		sc.Name = "sweep-k"
		sc.CrashAtEvents = []uint64{k}
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(r.Unjustified) != 0 {
			t.Errorf("k=%d: external-synchrony violations: %v", k, r.Unjustified)
		}
		if len(r.OrderViolations) != 0 {
			t.Errorf("k=%d: FIFO violations: %v", k, r.OrderViolations)
		}
		if want := uint64(sc.Clients * sc.Requests); r.Acked != want {
			t.Errorf("k=%d: acked %d, want %d", k, r.Acked, want)
		}
	}
}

// TestUngatedBaselineConvicted proves the harness has teeth: with the gate
// off, responses leave at operation end, so crashing between a response and
// its covering checkpoint must produce at least one acknowledged-but-
// unjustified request somewhere in the sweep — and the identical gated
// sweep must produce none.
func TestUngatedBaselineConvicted(t *testing.T) {
	crashPoints := []uint64{8, 15, 25, 40, 60}
	var convictions int
	for _, k := range crashPoints {
		sc := Script{Name: "ungated", Seed: 12, Clients: 2, Requests: 6, Window: 2,
			IntervalUs: 5000, Gated: false, CrashAtEvents: []uint64{k}}
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("ungated k=%d: %v", k, err)
		}
		convictions += len(r.Unjustified)

		sc.Name, sc.Gated = "gated-control", true
		g, err := Run(sc)
		if err != nil {
			t.Fatalf("gated k=%d: %v", k, err)
		}
		if len(g.Unjustified) != 0 {
			t.Errorf("gated control k=%d: violations: %v", k, g.Unjustified)
		}
	}
	if convictions == 0 {
		t.Error("ungated baseline survived every crash point: the harness cannot detect violations")
	}
}

// TestScenarioDeterminism runs a crashy script twice and demands
// bit-identical results — the digest hashes every acknowledgement (conn,
// req, receive time), every crash instant, and the final counters. CI runs
// this under -race.
func TestScenarioDeterminism(t *testing.T) {
	sc := Script{Name: "det", Seed: 13, Clients: 3, Requests: 8, Window: 2, Gated: true,
		CrashAtEvents: []uint64{15, 60}}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("digests differ across identical runs: %#x vs %#x", a.Digest, b.Digest)
	}
	if a.Acked != b.Acked || a.FinalTime != b.FinalTime || a.Retransmits != b.Retransmits ||
		a.Checkpoints != b.Checkpoints || a.Events != b.Events {
		t.Errorf("results differ: %+v vs %+v", a, b)
	}

	// A different seed shifts quiescence jitter and must change timing.
	sc.Seed = 14
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Error("different seed produced an identical digest: jitter not flowing into the run")
	}
}
