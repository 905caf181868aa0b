package faultplane

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"treesls/internal/simclock"
)

// fakeOverlay binds a scripted overlay world onto a base.
type fakeOverlay struct {
	name    string
	label   string
	bindErr error
	world   *fakeOverlayWorld
}

func (o *fakeOverlay) Name() string        { return o.name }
func (o *fakeOverlay) StreamLabel() string { return o.label }
func (o *fakeOverlay) Bind(base World, seed uint64, rng *rand.Rand) (OverlayWorld, error) {
	if o.bindErr != nil {
		return nil, o.bindErr
	}
	o.world.seed = seed
	o.world.rng = rng
	base.Oracles().Register(o.name+"-oracle", func() error { return nil })
	return o.world, nil
}

type fakeOverlayWorld struct {
	seed         uint64
	rng          *rand.Rand
	preCrashes   int
	beforeRounds []int
	finishCalls  int
	finishErr    error
	preCrashErr  error
}

func (w *fakeOverlayWorld) Finish() error {
	w.finishCalls++
	return w.finishErr
}

func (w *fakeOverlayWorld) PreCrash() error {
	w.preCrashes++
	return w.preCrashErr
}

func (w *fakeOverlayWorld) BeforeRound(round int) error {
	w.beforeRounds = append(w.beforeRounds, round)
	return nil
}

func TestComposeNaming(t *testing.T) {
	base := &fakeDomain{name: "cluster", label: "x"}
	c := Compose(base,
		&fakeOverlay{name: "media", world: &fakeOverlayWorld{}},
		&fakeOverlay{name: "repl", world: &fakeOverlayWorld{}})
	if c.Name() != "cluster+media+repl" {
		t.Fatalf("composed name %q", c.Name())
	}
	if c.StreamLabel() != "x" {
		t.Fatalf("composed stream label %q, want the base's", c.StreamLabel())
	}
}

func TestComposeCampaign(t *testing.T) {
	bw := cleanWorld(roundScript{fired: true}, roundScript{fired: false}, roundScript{fired: true})
	base := &fakeDomain{name: "base", worlds: map[uint64]*fakeWorld{5: bw}}
	ow := &fakeOverlayWorld{}
	ov := &fakeOverlay{name: "media", label: "media", world: ow}
	st, err := RunCampaign(Spec{Seeds: []uint64{5}, RoundsPerSeed: 3}, Compose(base, ov))
	if err != nil {
		t.Fatal(err)
	}
	if st.Domain != "base+media" || st.Injections != 2 {
		t.Fatalf("stats %+v", st)
	}
	// The overlay's oracle was appended to the base registry and ran after
	// both injected crashes (base oracle + overlay oracle per crash).
	if st.Comparisons != 4 {
		t.Fatalf("comparisons %d, want 4", st.Comparisons)
	}
	wantOracles := []string{"always-ok", "media-oracle"}
	if len(st.Oracles) != 2 || st.Oracles[0] != wantOracles[0] || st.Oracles[1] != wantOracles[1] {
		t.Fatalf("oracles %v, want %v", st.Oracles, wantOracles)
	}
	// Bind got the overlay's labeled stream, decorrelated from the base's.
	if ow.seed != 5 || ow.rng == nil {
		t.Fatalf("overlay bind state seed=%d rng=%v", ow.seed, ow.rng)
	}
	if got, want := ow.rng.Int63(), Stream(5, "media").Int63(); got != want {
		t.Fatalf("overlay stream draw %d, want %d (labeled split)", got, want)
	}
	// BeforeRound runs at the top of every round; Finish once per seed after
	// the base's.
	if len(ow.beforeRounds) != 3 || ow.beforeRounds[0] != 0 || ow.beforeRounds[2] != 2 {
		t.Fatalf("beforeRounds %v", ow.beforeRounds)
	}
	if ow.finishCalls != 1 || bw.finishCalls != 1 {
		t.Fatalf("finish calls overlay=%d base=%d", ow.finishCalls, bw.finishCalls)
	}
	// The overlay's PreCrash was wired through the base's hook list. The
	// fake base records hooks without invoking them; wiring is the contract
	// under test here (real worlds run hooks at the crash boundary).
	if len(bw.hooks) != 1 {
		t.Fatalf("pre-crash hooks on base: %d, want 1", len(bw.hooks))
	}
	if err := bw.RunPreCrash(); err != nil || ow.preCrashes != 1 {
		t.Fatalf("hook invocation err=%v preCrashes=%d", err, ow.preCrashes)
	}
	// PostRound forwards to the base every round.
	if bw.postCalls != 3 {
		t.Fatalf("base postCalls %d", bw.postCalls)
	}
}

// bareWorld implements only the core World interface — no pre-crash hooks,
// no PostRound, no clock.
type bareWorld struct{ oracles *Registry }

func (w *bareWorld) Round(rng *rand.Rand, round int) (bool, error) { return false, nil }
func (w *bareWorld) Oracles() *Registry                            { return w.oracles }
func (w *bareWorld) Finish() error                                 { return nil }

func TestComposeRequiresPreCrashHooks(t *testing.T) {
	d := &hookedDomain{w: &bareWorld{oracles: NewRegistry()}}
	ov := &fakeOverlay{name: "media", world: &fakeOverlayWorld{}}
	_, err := Compose(d, ov).Build(1, Stream(1, ""))
	if err == nil || !strings.Contains(err.Error(), "needs pre-crash hooks") {
		t.Fatalf("error %v, want pre-crash hook refusal", err)
	}
}

func TestComposeBindError(t *testing.T) {
	boom := errors.New("bind boom")
	d := &fakeDomain{name: "base"}
	_, err := Compose(d, &fakeOverlay{name: "media", bindErr: boom}).Build(1, Stream(1, ""))
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "overlay media:") {
		t.Fatalf("error %v", err)
	}
	base := &fakeDomain{name: "base", buildErr: boom}
	if _, err := Compose(base, &fakeOverlay{name: "media", world: &fakeOverlayWorld{}}).Build(1, Stream(1, "")); !errors.Is(err, boom) {
		t.Fatalf("base build error not propagated: %v", err)
	}
}

func TestComposedWorldForwarding(t *testing.T) {
	// A composed world over a bare base (no overlays, so Build succeeds)
	// degrades gracefully: PostRound no-ops, Now is zero, AddPreCrash drops.
	cw := &composedWorld{base: &bareWorld{oracles: NewRegistry()}}
	if err := cw.PostRound(nil); err != nil {
		t.Fatalf("PostRound on hook-less base: %v", err)
	}
	if cw.Now() != simclock.Time(0) {
		t.Fatalf("Now on clock-less base: %v", cw.Now())
	}
	cw.AddPreCrash(func() error { return nil }) // must not panic
	// Over a full-featured base it forwards.
	fw := cleanWorld()
	cw = &composedWorld{base: fw}
	if cw.Now() != simclock.Time(42) {
		t.Fatalf("Now not forwarded: %v", cw.Now())
	}
	cw.AddPreCrash(func() error { return nil })
	if len(fw.hooks) != 1 {
		t.Fatal("AddPreCrash not forwarded to base")
	}
	if err := cw.PostRound(nil); err != nil || fw.postCalls != 1 {
		t.Fatalf("PostRound not forwarded: err=%v calls=%d", err, fw.postCalls)
	}
}

func TestComposeFinishErrors(t *testing.T) {
	boom := errors.New("overlay finish boom")
	bw := cleanWorld(roundScript{fired: true})
	base := &fakeDomain{name: "base", worlds: map[uint64]*fakeWorld{5: bw}}
	ov := &fakeOverlay{name: "media", world: &fakeOverlayWorld{finishErr: boom}}
	_, err := RunCampaign(Spec{Seeds: []uint64{5}, RoundsPerSeed: 1}, Compose(base, ov))
	if !errors.Is(err, boom) {
		t.Fatalf("overlay finish error not propagated: %v", err)
	}
	// Base finish failure short-circuits before overlay finish.
	bw2 := cleanWorld(roundScript{fired: true})
	bw2.finishErr = errors.New("base finish boom")
	base2 := &fakeDomain{name: "base", worlds: map[uint64]*fakeWorld{5: bw2}}
	ow := &fakeOverlayWorld{}
	_, err = RunCampaign(Spec{Seeds: []uint64{5}, RoundsPerSeed: 1},
		Compose(base2, &fakeOverlay{name: "media", world: ow}))
	if !errors.Is(err, bw2.finishErr) || ow.finishCalls != 0 {
		t.Fatalf("base finish short-circuit: err=%v overlayFinish=%d", err, ow.finishCalls)
	}
}
