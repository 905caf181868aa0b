// Package crashfuzz is the systematic crash-injection harness for the
// TreeSLS persistence protocol. Every campaign here is a fault domain on
// the shared fault-plane engine (internal/faultplane): the engine owns
// seeded stream splitting, the round loop, and uniform post-crash oracle
// runs; each domain owns its world choreography — what to build, how to
// drive it, where to inject — and registers its invariants once.
//
// A campaign is run as RunX(spec, cfg): the faultplane.Spec carries the
// seeds, the rounds per seed (zero takes the domain's default) and the
// observer; cfg holds only the domain's own knobs. Each domain has one
// injection path: its world's Round draws a countdown from the stream and
// injects through it, and the fuzz one-shot (XOneShot) builds the same
// world, injects through the same path with values decoded from the fuzz
// input, and runs the same oracle registry.
//
// The original crash domain drives randomized workloads on a full
// simulated machine, arms power failures at randomized NVM persistence
// events (every tracked store, write-back, fence, and metadata crash point
// counts as one event), and after every crash restores the machine and
// checks the recovered state against a shadow model of the last committed
// checkpoint.
//
// The harness runs under both persistence models: eADR (stores durable on
// landing) and ADR (unflushed cache lines are dropped or torn at the
// failure, per mem's seeded damage RNG). Under ADR it exercises exactly
// the windows the clwb/sfence discipline must close: between a backup-page
// copy and its flush, between the flush and the fence, between the fence
// and the version publish, and inside the journal's begin/apply/commit
// protocol.
package crashfuzz

import (
	"fmt"
	"math/rand"

	"treesls/internal/caps"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// Config holds the crash domain's knobs; the seeds, the rounds per seed
// and the observer come from the campaign's faultplane.Spec.
type Config struct {
	// Mode is the persistence model to run under.
	Mode mem.PersistMode
	// EventWindow bounds the armed countdown: each injection fires after
	// 1..EventWindow persistence events.
	EventWindow int
	// StepsPerCrash bounds the workload steps run while waiting for an
	// armed crash to fire.
	StepsPerCrash int
	// Pages is the size of the fuzzed working set (default 32).
	Pages int
	// Threads is the number of app threads issuing writes (default 4).
	Threads int
	// Audit runs the state-digest auditor after every checkpoint and
	// restore; any invariant violation fails the campaign.
	Audit bool
	// SerialWalk forces the serial reference capability-tree walk. The
	// default (false) fuzzes the parallel work-queue walk, whose claim
	// and subtree-commit boundaries are persistence events — so armed
	// crashes land mid-steal and between subtree commits.
	SerialWalk bool
}

func (c *Config) fill() {
	if c.EventWindow == 0 {
		c.EventWindow = faultplane.Defaults.EventWindow
	}
	if c.StepsPerCrash == 0 {
		c.StepsPerCrash = faultplane.Defaults.StepsPerRound
	}
	if c.Pages == 0 {
		c.Pages = 32
	}
	if c.Threads == 0 {
		c.Threads = 4
	}
}

// Result aggregates a campaign's outcome across all seeds.
type Result struct {
	// CrashesFired is the number of injected power failures that fired
	// (an armed countdown can expire unfired if the workload window ends
	// first; those are re-armed, not counted).
	CrashesFired int
	// Restores is the number of successful post-crash restores (equals
	// CrashesFired unless an error aborted the campaign).
	Restores int
	// RestoreCrashes counts power failures injected *during* a restore:
	// the half-finished recovery was crashed again and recovery restarted
	// from scratch (restore must be idempotent and re-crashable).
	RestoreCrashes int
	// Commits counts checkpoints that committed durably.
	Commits int
	// Rollbacks counts crashes that landed inside an in-flight checkpoint
	// whose version did NOT survive — recovery correctly fell back to the
	// previous committed version (this includes dropped commit words).
	Rollbacks int
	// InFlightCommitted counts crashes inside an in-flight checkpoint
	// whose commit word DID persist before the failure.
	InFlightCommitted int

	// Device/manager robustness counters, summed across seeds.
	LinesAtRisk, LinesDropped, LinesTorn uint64
	TornRecords                          uint64
	DegradedRestores                     uint64
	ReplicaRepairs                       uint64

	// AuditChecks counts state-digest audits run (Config.Audit only);
	// the campaign errors out on the first violation, so a returned
	// Result always reflects zero violations.
	AuditChecks uint64
}

// fuzzer is the per-seed world: one machine plus the shadow model.
type fuzzer struct {
	cfg Config
	rng *rand.Rand
	res *Result
	m   *kernel.Machine
	p   *kernel.Process
	va  uint64

	oracles *faultplane.Registry
	faultplane.PreCrashHooks

	live      []uint64 // current app state
	committed []uint64 // app state at the last durable commit
	liveReg   uint64
	commReg   uint64
	commVer   uint64 // version of the last durable commit

	// pending*, set while a TakeCheckpoint is in flight, capture the
	// state that round would commit; after a crash the restored version
	// tells which of committed/pending is the right expectation.
	pendingVer uint64
	pending    []uint64
	pendingReg uint64

	// lastOp describes the workload op a crash interrupted, for error
	// messages.
	lastOp string

	// Per-seed outcome counters, folded into the Result by Finish.
	rollbacks, inFlightCommitted, restoreCrashes int
}

// domain is the crash campaign's fault-plane domain; o, when set, observes
// every machine.
func (cfg Config) domain(o *obs.Observer, res *Result) domain {
	cfg.fill()
	return domain{"crash", "", func(seed uint64, rng *rand.Rand) (faultplane.World, error) {
		return newFuzzer(cfg, o, seed, rng, res)
	}}
}

// Run executes the campaign (spec.RoundsPerSeed defaults to the shared
// faultplane.Defaults.RoundsPerSeed) and returns its aggregate result. The
// first verification failure aborts the campaign with an error describing
// the divergence. spec.Obs also observes the fuzzed machines.
func Run(spec faultplane.Spec, cfg Config) (Result, error) {
	var res Result
	st, err := runDomain(spec, faultplane.Defaults.RoundsPerSeed, cfg.domain(spec.Obs, &res))
	res.CrashesFired, res.Restores = st.Injections, st.Recoveries
	return res, err
}

// Finish folds the seed's machine counters into the campaign result and
// runs the allocator's final invariants.
func (f *fuzzer) Finish() error {
	res := f.res
	res.Commits += int(f.m.Ckpt.Stats.Checkpoints)
	res.Rollbacks += f.rollbacks
	res.InFlightCommitted += f.inFlightCommitted
	res.RestoreCrashes += f.restoreCrashes
	res.LinesAtRisk += f.m.Memory.Stats.CrashLinesAtRisk
	res.LinesDropped += f.m.Memory.Stats.CrashLinesDropped
	res.LinesTorn += f.m.Memory.Stats.CrashLinesTorn
	res.TornRecords += f.m.Journal.TornRecords
	res.DegradedRestores += f.m.Ckpt.Stats.DegradedRestores
	res.ReplicaRepairs += f.m.Ckpt.Stats.ReplicaRepair
	if f.m.Auditor != nil {
		res.AuditChecks += f.m.Auditor.Checks
	}
	return f.m.Alloc.CheckInvariants()
}

func newFuzzer(cfg Config, o *obs.Observer, seed uint64, rng *rand.Rand, res *Result) (*fuzzer, error) {
	mcfg := kernel.DefaultConfig()
	mcfg.CheckpointEvery = 0 // explicit checkpoints give a precise model
	mcfg.SkipDefaultServices = true
	mcfg.Seed = seed
	mcfg.Mem.Persist = cfg.Mode
	mcfg.Mem.CrashSeed = seed
	mcfg.Checkpoint.HotThreshold = 2
	mcfg.Checkpoint.DemoteAfter = 3
	mcfg.Checkpoint.ParallelWalk = !cfg.SerialWalk
	mcfg.Audit = cfg.Audit
	mcfg.Obs = o
	m := kernel.New(mcfg)

	f := &fuzzer{
		cfg:       cfg,
		rng:       rng,
		res:       res,
		m:         m,
		live:      make([]uint64, cfg.Pages),
		committed: make([]uint64, cfg.Pages),
	}
	p, err := m.NewProcess("app", cfg.Threads)
	if err != nil {
		return nil, err
	}
	f.p = p
	va, _, err := p.Mmap(uint64(cfg.Pages), caps.PMODefault)
	if err != nil {
		return nil, err
	}
	f.va = va

	// Seed every page with a known value and take the baseline checkpoint.
	for i := 0; i < cfg.Pages; i++ {
		v := f.rng.Uint64()
		if err := f.writePage(i, v); err != nil {
			return nil, err
		}
	}
	if err := f.checkpoint(); err != nil {
		return nil, err
	}
	f.registerOracles()
	return f, nil
}

// registerOracles wires the crash domain's invariant set, in the order the
// legacy harness checked them: the state-digest audit, the restored
// version's lineage (which also resynchronizes the shadow model), then the
// shadow page and register comparisons against the surviving commit.
func (f *fuzzer) registerOracles() {
	f.oracles = faultplane.NewRegistry()
	f.oracles.Register("audit", func() error { return auditClean(f.m) })
	f.oracles.Register("version-lineage", f.checkLineage)
	f.oracles.Register("shadow-pages", f.checkPages)
	f.oracles.Register("shadow-register", f.checkRegister)
}

// Oracles returns the crash domain's registry.
func (f *fuzzer) Oracles() *faultplane.Registry { return f.oracles }

// Now reports simulated time for engine trace instants.
func (f *fuzzer) Now() simclock.Time { return f.m.Now() }

func (f *fuzzer) writePage(i int, v uint64) error {
	_, err := f.m.Run(f.p, f.p.Thread(f.rng.Intn(f.cfg.Threads)), func(e *kernel.Env) error {
		return e.WriteU64(f.va+uint64(i)*mem.PageSize, v)
	})
	if err == nil {
		f.live[i] = v
	}
	return err
}

// checkpoint takes a checkpoint with the pending-model bracket: if a crash
// interrupts it, the restored version decides whether the round committed.
func (f *fuzzer) checkpoint() error {
	f.pendingVer = f.m.Ckpt.CommittedVersion() + 1
	f.pending = append(f.pending[:0], f.live...)
	f.pendingReg = f.liveReg
	f.m.TakeCheckpoint()
	// No crash: the round committed.
	f.commitPending()
	return auditClean(f.m)
}

func (f *fuzzer) commitPending() {
	copy(f.committed, f.pending)
	f.commReg = f.pendingReg
	f.commVer = f.pendingVer
	f.pendingVer = 0
}

// Round draws a persistence-event countdown and injects; the engine runs
// the oracle registry after every fired round.
func (f *fuzzer) Round(rng *rand.Rand, round int) (bool, error) {
	return f.inject(uint64(1+f.rng.Intn(f.cfg.EventWindow)), f.cfg.StepsPerCrash)
}

// inject is the crash domain's one injection path: arm a power failure k
// persistence events ahead, drive up to n workload steps until it fires (a
// quiet window simply did not fire), then crash and restore — one restore
// in RestoreCrashDenom under its own armed countdown.
func (f *fuzzer) inject(k uint64, n int) (bool, error) {
	fired, err := armedSteps(f.m, k, n, f.step)
	if !fired || err != nil {
		return false, err
	}
	if err := f.RunPreCrash(); err != nil {
		return false, err
	}
	f.m.Crash()
	restoreCrashed, err := restoreAfterCrash(f.m, f.rng, true, f.cfg.EventWindow)
	if restoreCrashed {
		f.restoreCrashes++
	}
	return true, err
}

// step runs one random workload operation.
func (f *fuzzer) step() error {
	switch r := f.rng.Intn(100); {
	case r < 62: // page write
		i, v := f.rng.Intn(f.cfg.Pages), f.rng.Uint64()
		f.lastOp = fmt.Sprintf("write page %d = %#x", i, v)
		return f.writePage(i, v)
	case r < 72: // register update
		v := f.rng.Uint64()
		f.lastOp = "register update"
		_, e := f.m.Run(f.p, f.p.Threads[1], func(e *kernel.Env) error {
			e.T.Touch(func(c *caps.Context) { c.R[5] = v })
			return nil
		})
		if e == nil {
			f.liveReg = v
		}
		return e
	case r < 78: // cold-page eviction (exercises swap under crash)
		f.lastOp = "evict"
		if f.m.Ckpt.HasCheckpoint() {
			_, e := f.m.EvictColdPages(f.rng.Intn(4) + 1)
			return e
		}
		return nil
	default: // checkpoint
		f.lastOp = fmt.Sprintf("checkpoint v%d", f.m.Ckpt.CommittedVersion()+1)
		return f.checkpoint()
	}
}

// checkLineage classifies which version survived the crash — the last
// durable commit or an in-flight round whose commit word persisted — and
// resynchronizes the shadow model and process handle to it. Any other
// restored version is a lineage violation.
func (f *fuzzer) checkLineage() error {
	ver := f.m.Ckpt.CommittedVersion()
	switch {
	case ver == f.commVer:
		// The in-flight round (if any) did not survive: rolled back.
		if f.pendingVer != 0 {
			f.rollbacks++
		}
	case f.pendingVer != 0 && ver == f.pendingVer:
		// The in-flight round's commit word persisted before power
		// failed: the round IS the checkpoint.
		f.inFlightCommitted++
		f.commitPending()
	default:
		return fmt.Errorf("restored version %d, expected %d or in-flight %d", ver, f.commVer, f.pendingVer)
	}
	f.pendingVer = 0

	// Resync the live model and process handle to the restored state.
	copy(f.live, f.committed)
	f.liveReg = f.commReg
	f.p = f.m.Process("app")
	if f.p == nil {
		return fmt.Errorf("process lost across restore")
	}
	return nil
}

// checkPages compares every restored page against the shadow model of the
// surviving commit.
func (f *fuzzer) checkPages() error {
	ver := f.m.Ckpt.CommittedVersion()
	for i := 0; i < f.cfg.Pages; i++ {
		var got uint64
		if _, err := f.m.Run(f.p, f.p.MainThread(), func(e *kernel.Env) error {
			var err error
			got, err = e.ReadU64(f.va + uint64(i)*mem.PageSize)
			return err
		}); err != nil {
			return fmt.Errorf("reading page %d: %w", i, err)
		}
		if got != f.committed[i] {
			return fmt.Errorf("page %d = %#x, committed model %#x (version %d, crash during %s)",
				i, got, f.committed[i], ver, f.lastOp)
		}
	}
	return nil
}

// checkRegister compares the shadowed register against the surviving
// commit.
func (f *fuzzer) checkRegister() error {
	if got := f.p.Threads[1].Ctx.R[5]; got != f.commReg {
		return fmt.Errorf("register = %#x, committed model %#x (version %d, crash during %s)",
			got, f.commReg, f.m.Ckpt.CommittedVersion(), f.lastOp)
	}
	return nil
}

// OneShot runs a single parameterized crash injection — the entry point of
// FuzzCrashEvent: boot a machine with the given workload seed and the
// state-digest auditor on, then take the campaign's injection path with a
// countdown of eventK persistence events and a budget of steps workload
// operations. A run where the countdown never fires is a valid
// (uninteresting) input, not an error. serial selects the reference walk;
// the default parallel walk adds a persistence event at every work-queue
// claim and subtree commit, putting those boundaries inside the fuzzed
// crash window.
func OneShot(mode mem.PersistMode, seed, eventK uint64, steps uint16, serial bool) error {
	cfg := Config{
		Mode:       mode,
		Pages:      16, // small working set keeps fuzz iterations fast
		Threads:    2,
		Audit:      true,
		SerialWalk: serial,
	}
	cfg.fill()
	f, err := newFuzzer(cfg, nil, seed, faultplane.Stream(seed, ""), &Result{})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	fired, err := f.inject(eventK%uint64(cfg.EventWindow)+1, int(steps)%cfg.StepsPerCrash+1)
	return judge(f, fired, err)
}
