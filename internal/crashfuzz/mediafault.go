// Media-fault campaign: the crashfuzz harness's second oracle. Where the
// crash campaign proves power-failure atomicity, this one proves the
// never-silently-corrupt contract of the media-fault tolerance layer: after
// seeded poison (detectable, machine-check-style) and silent bit-rot are
// injected into backup pages, commit metadata, and mirrors, every restored
// page must be bit-identical to the committed oracle OR explicitly named in
// the restore manifest (degraded to an older committed version, or lost and
// rebuilt as deterministic zeros). A checksum-disabled baseline run of the
// same campaign counts the silent corruptions the full protocol would have
// let through — the ablation that justifies the checksum machinery.
package crashfuzz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// MediaConfig holds the media domain's knobs.
type MediaConfig struct {
	// Mode is the persistence model (eADR or ADR).
	Mode mem.PersistMode
	// Method selects the page checkpointing strategy; HybridCopy layers
	// the hot-page prepause policy on top. Together they span the three
	// copy configurations of the checkpoint manager.
	Method     checkpoint.CopyMethod
	HybridCopy bool
	// Pages is the app working set (default 24). Threads defaults to 2.
	Pages, Threads int
	// CrashFaults adds background media damage: this many random NVM
	// lines are poisoned at every power failure (the injector skips the
	// mirrored metadata frames).
	CrashFaults int
	// Replicas > 1 keeps redundant backup copies, turning detected
	// corruption into transparent repair instead of degradation.
	Replicas int
	// DisableChecksums runs the ablation baseline: poison stays
	// detectable (the device flags it), but silent rot sails through.
	// Mismatches are counted as SilentCorruptions instead of failing.
	DisableChecksums bool
	// CrashDuringRestore arms a power failure over one restore in
	// faultplane.Defaults.RestoreCrashDenom, stacking recovery
	// re-entrancy on top of media damage.
	CrashDuringRestore bool
	// ScrubEveryN runs a full media scrub every N rounds (0 disables;
	// 1 heals mirror rot before the next round can pile a second fault
	// on top of it).
	ScrubEveryN int
	// Audit runs the state-digest auditor after every restore.
	Audit bool
}

func (c *MediaConfig) fill() {
	if c.Pages == 0 {
		c.Pages = 24
	}
	if c.Threads == 0 {
		c.Threads = 2
	}
}

// MediaResult aggregates a media campaign across all seeds.
type MediaResult struct {
	// Injections counts targeted media faults (poison or rot) injected.
	Injections int
	// Crashes counts crash-restore-verify rounds; RestoreCrashes counts
	// the restores that were themselves crashed and restarted.
	Crashes, RestoreCrashes int
	// PagesVerified counts app pages read back bit-identical to the
	// committed oracle after a restore.
	PagesVerified int
	// Degraded / Lost are summed manifest entries: pages restored as an
	// older committed version, and pages rebuilt as deterministic zeros.
	Degraded, Lost int
	// SilentCorruptions counts restored pages that matched neither the
	// oracle nor any manifest entry. Always zero with checksums on (a
	// mismatch fails the campaign); the DisableChecksums baseline
	// accumulates them — that count is the point of the ablation.
	SilentCorruptions int
	// CommitLost counts seeds that ended in a loud fail-closed restore
	// after the campaign separately damaged BOTH copies of the commit
	// record (a double fault the 2-copy scheme cannot survive by design).
	// Detected total loss is the contract-compliant outcome there; only
	// an unexplained refusal — one with an intact copy remaining — fails
	// the campaign.
	CommitLost int
	// Repair/robustness counters summed from the managers and devices.
	ReplicaRepairs, MetaRepairs, ScrubRepairs uint64
	DegradedObjects                           uint64
	LinesPoisoned                             uint64
	AuditChecks                               uint64
}

// domain is the media campaign's fault-plane domain. Its stream label
// preserves the campaign's historical RNG identity: the silo always XORed
// its seeds with the ASCII bytes of "media".
func (cfg MediaConfig) domain(res *MediaResult) domain {
	cfg.fill()
	return domain{"media", "media", func(seed uint64, rng *rand.Rand) (faultplane.World, error) {
		return newMediaFuzzer(cfg, seed, rng, res)
	}}
}

// RunMedia executes the campaign (one inject-crash-restore-verify round
// per spec round; spec.RoundsPerSeed defaults to the shared
// faultplane.Defaults.RoundsPerSeed) and returns the aggregate result. With
// checksums enabled, the first silently corrupt page aborts with an error;
// the baseline instead counts and resynchronizes.
func RunMedia(spec faultplane.Spec, cfg MediaConfig) (MediaResult, error) {
	var res MediaResult
	_, err := runDomain(spec, faultplane.Defaults.RoundsPerSeed, cfg.domain(&res))
	return res, err
}

// mediaFuzzer is the per-seed world: one machine plus a full-page oracle.
// hist keeps the exact committed bytes of every app page at every committed
// version, so degraded restores can be checked against the precise older
// version the manifest names.
type mediaFuzzer struct {
	cfg   MediaConfig
	rng   *rand.Rand
	res   *MediaResult
	m     *kernel.Machine
	p     *kernel.Process
	va    uint64
	pmoID uint64

	live    [][]byte            // current expected content per page
	hist    map[uint64][][]byte // committed version -> page contents
	commVer uint64

	// primaryFault / mirrorFault track outstanding injected damage on the
	// two commit-record copies: set by targeted kind-6/7 injections,
	// cleared by the event that durably rewrites that copy (scrub for
	// both; a new checkpoint for the mirror; a verified restore read for
	// the primary). Both set at once is the double fault the 2-copy
	// record cannot survive — the one case where a fail-closed restore is
	// the correct loud outcome rather than a harness failure.
	primaryFault, mirrorFault bool

	oracles *faultplane.Registry
	faultplane.PreCrashHooks
}

func newMediaFuzzer(cfg MediaConfig, seed uint64, rng *rand.Rand, res *MediaResult) (*mediaFuzzer, error) {
	mcfg := kernel.DefaultConfig()
	mcfg.CheckpointEvery = 0
	mcfg.SkipDefaultServices = true
	mcfg.Seed = seed
	mcfg.Mem.Persist = cfg.Mode
	mcfg.Mem.CrashSeed = seed
	mcfg.Mem.Media = mem.MediaFaultConfig{CrashFaults: cfg.CrashFaults, Seed: seed}
	mcfg.Checkpoint.Method = cfg.Method
	mcfg.Checkpoint.HybridCopy = cfg.HybridCopy
	mcfg.Checkpoint.Replicas = cfg.Replicas
	mcfg.Checkpoint.DisableChecksums = cfg.DisableChecksums
	mcfg.Checkpoint.HotThreshold = 2
	mcfg.Checkpoint.DemoteAfter = 3
	mcfg.Audit = cfg.Audit
	m := kernel.New(mcfg)

	f := &mediaFuzzer{
		cfg:  cfg,
		rng:  rng,
		res:  res,
		m:    m,
		hist: make(map[uint64][][]byte),
		live: make([][]byte, cfg.Pages),
	}
	for i := range f.live {
		f.live[i] = make([]byte, mem.PageSize)
	}
	p, err := m.NewProcess("app", cfg.Threads)
	if err != nil {
		return nil, err
	}
	f.p = p
	va, pmo, err := p.Mmap(uint64(cfg.Pages), caps.PMODefault)
	if err != nil {
		return nil, err
	}
	f.va, f.pmoID = va, pmo.ID()

	for i := 0; i < cfg.Pages; i++ {
		if err := f.writePage(i, f.rng.Uint64()); err != nil {
			return nil, err
		}
	}
	f.checkpoint()
	f.registerOracles()
	return f, nil
}

// registerOracles wires the never-silently-corrupt contract in its legacy
// check order: audit, then version identity, then the manifest-explained
// page-content walk.
func (f *mediaFuzzer) registerOracles() {
	f.oracles = faultplane.NewRegistry()
	f.oracles.Register("audit", func() error { return auditClean(f.m) })
	f.oracles.Register("committed-version", f.checkVersion)
	f.oracles.Register("page-contract", f.checkPages)
}

// Oracles returns the media domain's registry.
func (f *mediaFuzzer) Oracles() *faultplane.Registry { return f.oracles }

// Now reports simulated time for engine trace instants.
func (f *mediaFuzzer) Now() simclock.Time { return f.m.Now() }

func (f *mediaFuzzer) writePage(i int, v uint64) error {
	_, err := f.m.Run(f.p, f.p.Thread(f.rng.Intn(f.cfg.Threads)), func(e *kernel.Env) error {
		return e.WriteU64(f.va+uint64(i)*mem.PageSize, v)
	})
	if err == nil {
		binary.LittleEndian.PutUint64(f.live[i][:8], v)
	}
	return err
}

// checkpoint commits and snapshots the oracle at the new version.
func (f *mediaFuzzer) checkpoint() {
	f.m.TakeCheckpoint()
	// The commit protocol rewrites the mirror record wholesale, replacing
	// any rotted bytes. The primary is rewritten too, but a small store
	// does not clear a poison flag — only repair or scrub does.
	f.mirrorFault = false
	f.commVer = f.m.Ckpt.CommittedVersion()
	snap := make([][]byte, len(f.live))
	for i := range f.live {
		snap[i] = append([]byte(nil), f.live[i]...)
	}
	f.hist[f.commVer] = snap
}

// appSlots collects the checkpoint-page slots of the app PMO, returning for
// each page index its CkptPage. Used to aim targeted injections.
func (f *mediaFuzzer) appSlots() map[uint64]*caps.CkptPage {
	return collectPMOSlots(f.m, f.pmoID)
}

// collectPMOSlots walks a machine's checkpoint tree and returns the
// checkpoint-page slot of every page of the given PMO, keyed by page index.
// Shared by the media domain and the media overlay of composed campaigns.
func collectPMOSlots(m *kernel.Machine, pmoID uint64) map[uint64]*caps.CkptPage {
	out := make(map[uint64]*caps.CkptPage)
	m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
		if r.ObjID != pmoID {
			return
		}
		for bi := range r.Backup {
			snap, ok := r.Backup[bi].(*caps.PMOSnap)
			if !ok {
				continue
			}
			snap.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
				out[idx] = cp
				return true
			})
		}
	})
	return out
}

// restoreSlot mirrors the restore's version rules (minus swap handling) to
// pick the slot a clean restore would read for cp — the highest-value
// injection target.
func restoreSlot(cp *caps.CkptPage, committed uint64) int {
	for i := 0; i < 2; i++ {
		if !cp.Page[i].IsNil() && cp.Page[i].Kind == mem.KindNVM && cp.Ver[i] == committed && cp.Ver[i] != 0 {
			return i
		}
	}
	if !cp.Page[1].IsNil() && cp.Page[1].Kind == mem.KindNVM && cp.Ver[1] == 0 {
		return 1
	}
	src, best := -1, uint64(0)
	for i := 0; i < 2; i++ {
		if !cp.Page[i].IsNil() && cp.Page[i].Kind == mem.KindNVM && cp.Ver[i] != 0 && cp.Ver[i] <= committed && cp.Ver[i] > best {
			src, best = i, cp.Ver[i]
		}
	}
	return src
}

// inject plants one targeted media fault and reports whether it did.
func (f *mediaFuzzer) inject(res *MediaResult) bool {
	seed := f.rng.Uint64()
	commitPage := mem.PageID{Kind: mem.KindNVM, Frame: mem.CommitMetaFrame}
	switch k := f.rng.Intn(10); k {
	case 6:
		// Poison the primary commit record: the restore must heal it
		// from the mirror, never fail closed while the mirror is intact.
		f.m.Memory.InjectPoison(commitPage, 0, 16, seed)
		f.primaryFault = true
	case 7:
		// Rot the commit-record mirror: latent until a scrub resyncs
		// it (or the primary is lost before one runs).
		f.m.Memory.InjectRot(commitPage, mem.LineSize, 16, seed)
		f.mirrorFault = true
	default:
		slots := f.appSlots()
		if len(slots) == 0 {
			return false
		}
		idx := uint64(f.rng.Intn(f.cfg.Pages))
		cp, ok := slots[idx]
		if !ok {
			return false
		}
		si := restoreSlot(cp, f.m.Ckpt.CommittedVersion())
		if k >= 8 {
			// Hit a random slot instead of the chosen source:
			// exercises fallback verification and quarantine.
			si = f.rng.Intn(2)
		}
		if si < 0 || cp.Page[si].IsNil() || cp.Page[si].Kind != mem.KindNVM {
			return false
		}
		off := f.rng.Intn(mem.PageSize - 256)
		n := 8 + f.rng.Intn(200)
		if k == 4 || k == 5 {
			f.m.Memory.InjectPoison(cp.Page[si], off, n, seed)
		} else {
			f.m.Memory.InjectRot(cp.Page[si], off, n, seed)
		}
	}
	res.Injections++
	return true
}

// Round runs one inject-crash-restore round: a write burst, usually a
// commit, an optional scrub, one targeted media fault, a power failure, and
// the restore (itself crash-armed one time in RestoreCrashDenom). The
// engine runs the page-contract oracle registry next. A seed whose commit
// record was separately damaged on both copies ends with ErrStopSeed — the
// loud fail-closed restore is the designed outcome there.
func (f *mediaFuzzer) Round(rng *rand.Rand, round int) (bool, error) {
	res := f.res
	// A burst of writes, usually followed by a commit — skipping
	// some commits spreads backup version tags across rules 1-3.
	for w := 1 + f.rng.Intn(5); w > 0; w-- {
		if err := f.writePage(f.rng.Intn(f.cfg.Pages), f.rng.Uint64()); err != nil {
			return false, err
		}
	}
	if f.rng.Intn(4) < 3 {
		f.checkpoint()
	}
	if f.cfg.ScrubEveryN > 0 && round%f.cfg.ScrubEveryN == 0 {
		f.m.Scrub()
		// The scrubber rebuilds any dead commit-record copy from
		// its intact twin (clearing poison as it rewrites).
		f.primaryFault, f.mirrorFault = false, false
	}
	f.inject(res)
	if err := f.RunPreCrash(); err != nil {
		return false, err
	}
	f.m.Crash()
	res.Crashes++
	restoreCrashed, err := restoreAfterCrash(f.m, f.rng, f.cfg.CrashDuringRestore, faultplane.Defaults.RestoreEventWindow)
	if restoreCrashed {
		res.RestoreCrashes++
	}
	if f.commitLost(err) {
		// Both commit-record copies were separately damaged and the
		// restore failed closed — loud, attributable total loss, the
		// designed outcome of a double fault on a 2-copy record. The
		// machine is unrestorable; the seed ends here.
		res.CommitLost++
		return false, faultplane.ErrStopSeed
	}
	if err != nil {
		return false, err
	}
	// A completed restore validated (or repaired from the mirror) the
	// primary commit record; latent mirror rot is untouched.
	f.primaryFault = false
	return true, nil
}

// Finish folds the seed's repair and robustness counters.
func (f *mediaFuzzer) Finish() error {
	res := f.res
	res.ReplicaRepairs += f.m.Ckpt.Stats.ReplicaRepair
	res.MetaRepairs += f.m.Ckpt.Stats.MetaRepairs + f.m.Journal.MirrorRepairs
	res.ScrubRepairs += f.m.Ckpt.Stats.ScrubRepairs
	res.DegradedObjects += f.m.Ckpt.Stats.DegradedObjects
	res.LinesPoisoned += f.m.Memory.Stats.PoisonedLines
	if f.m.Auditor != nil {
		res.AuditChecks += f.m.Auditor.Checks
	}
	if f.m.Crashed() {
		// Unrestorable after total commit-record loss: the allocator sits
		// mid-crash, where its invariants are not expected to hold.
		return nil
	}
	return f.m.Alloc.CheckInvariants()
}

// commitLost reports whether err is the designed loud outcome of the
// campaign having separately damaged both commit-record copies.
func (f *mediaFuzzer) commitLost(err error) bool {
	return err != nil && errors.Is(err, checkpoint.ErrNoCheckpoint) &&
		f.primaryFault && f.mirrorFault
}

func (f *mediaFuzzer) checkVersion() error {
	if ver := f.m.Ckpt.CommittedVersion(); ver != f.commVer {
		return fmt.Errorf("restored version %d, want %d", ver, f.commVer)
	}
	return nil
}

// checkPages reads back every app page and holds the restored machine to
// the contract: bit-identical to the committed oracle, or explicitly
// degraded to a named older version, or explicitly lost (zeros) — never
// silently wrong. The baseline counts violations instead of failing, then
// resyncs its oracle so each corruption is counted once.
func (f *mediaFuzzer) checkPages() error {
	res := f.res
	ver := f.m.Ckpt.CommittedVersion()
	man := f.m.Ckpt.Manifest()
	degraded := make(map[uint64]uint64) // app page index -> got version
	lost := make(map[uint64]bool)
	if man != nil {
		res.Degraded += len(man.Degraded)
		res.Lost += len(man.Lost)
		for _, d := range man.Degraded {
			if d.PMO == f.pmoID {
				degraded[d.Index] = d.GotVersion
			}
		}
		for _, l := range man.Lost {
			if l.PMO == f.pmoID {
				lost[l.Index] = true
			}
		}
	}
	f.p = f.m.Process("app")
	if f.p == nil {
		return fmt.Errorf("process lost across restore")
	}

	oracle := f.hist[f.commVer]
	got := make([]byte, mem.PageSize)
	zero := make([]byte, mem.PageSize)
	for i := 0; i < f.cfg.Pages; i++ {
		if _, err := f.m.Run(f.p, f.p.MainThread(), func(e *kernel.Env) error {
			return e.Read(f.va+uint64(i)*mem.PageSize, got)
		}); err != nil {
			return fmt.Errorf("reading page %d: %w", i, err)
		}
		want := oracle[i]
		switch {
		case lost[uint64(i)]:
			// The manifest owns this page: deterministic zeros. Loss
			// rewrites the committed state of record — a later restore
			// of this same version legitimately reads zeros back out of
			// the rebuilt trusted slot with nothing new to report, so
			// the oracle for this version must be updated in place.
			want = zero
			copy(oracle[i], want)
		case degraded[uint64(i)] != 0:
			old, ok := f.hist[degraded[uint64(i)]]
			if !ok {
				return fmt.Errorf("page %d degraded to unknown version %d", i, degraded[uint64(i)])
			}
			// Same in-place rewrite as loss: the published replacement
			// slot is what this version restores to from now on.
			want = old[i]
			copy(oracle[i], want)
		}
		if bytes.Equal(got, want) {
			res.PagesVerified++
		} else if f.cfg.DisableChecksums {
			res.SilentCorruptions++
			// Adopt the corruption so it is counted exactly once.
			copy(oracle[i], got)
		} else {
			return fmt.Errorf("page %d silently corrupt (version %d, degraded=%v lost=%v): got %x... want %x...",
				i, ver, degraded[uint64(i)] != 0, lost[uint64(i)], got[:16], want[:16])
		}
		copy(f.live[i], want)
		if !bytes.Equal(got, want) {
			copy(f.live[i], got)
		}
	}
	return nil
}

// OneShotMedia is the fuzz-target entry point: one seeded machine, a small
// number of inject-crash-restore rounds with checksums on, every restored
// page held to the explicit-or-identical contract. duringRestore stacks
// armed restore crashes on top.
func OneShotMedia(mode mem.PersistMode, seed, injections, crashFaults uint64, duringRestore bool) error {
	cfg := MediaConfig{
		Mode:               mode,
		Pages:              12,
		CrashFaults:        int(crashFaults % 4),
		CrashDuringRestore: duringRestore,
		ScrubEveryN:        2,
		Audit:              true,
	}
	if seed%3 == 1 {
		cfg.Method = checkpoint.MethodStopAndCopy
	} else if seed%3 == 2 {
		cfg.HybridCopy = true
	}
	res, err := RunMedia(faultplane.Spec{Seeds: []uint64{seed}, RoundsPerSeed: int(injections%12) + 1}, cfg)
	if err != nil {
		return err
	}
	if res.SilentCorruptions != 0 {
		return fmt.Errorf("%d silent corruptions with checksums enabled", res.SilentCorruptions)
	}
	return nil
}
