package audit_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/obs/audit"
)

// workloadConfig is one cell of the differential matrix.
type workloadConfig struct {
	name   string
	method checkpoint.CopyMethod
	hybrid bool
	mode   mem.PersistMode
}

var diffMatrix = []workloadConfig{
	{"cow+hybrid/eadr", checkpoint.MethodCOW, true, mem.ModeEADR},
	{"cow/eadr", checkpoint.MethodCOW, false, mem.ModeEADR},
	{"stop-and-copy/eadr", checkpoint.MethodStopAndCopy, false, mem.ModeEADR},
	{"cow+hybrid/adr", checkpoint.MethodCOW, true, mem.ModeADR},
	{"cow/adr", checkpoint.MethodCOW, false, mem.ModeADR},
	{"stop-and-copy/adr", checkpoint.MethodStopAndCopy, false, mem.ModeADR},
}

func newMachine(wc workloadConfig, seed uint64, o *obs.Observer) *kernel.Machine {
	cfg := kernel.DefaultConfig()
	cfg.Cores = 4
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	cfg.Seed = seed
	cfg.Mem.Persist = wc.mode
	cfg.Mem.CrashSeed = seed
	cfg.Checkpoint.Method = wc.method
	cfg.Checkpoint.HybridCopy = wc.hybrid
	cfg.Checkpoint.HotThreshold = 2
	cfg.Checkpoint.DemoteAfter = 3
	cfg.Audit = true
	cfg.Obs = o
	return kernel.New(cfg)
}

// driveWorkload runs a deterministic randomized workload — page writes,
// register updates, interleaved checkpoints — finishing with a checkpoint,
// so the machine's full logical state is committed when it returns.
func driveWorkload(t *testing.T, m *kernel.Machine, seed uint64, ops int) (*kernel.Process, uint64) {
	t.Helper()
	const pages = 24
	p, err := m.NewProcess("app", 3)
	if err != nil {
		t.Fatal(err)
	}
	va, _, err := p.Mmap(pages, caps.PMODefault)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 70:
			i, v := rng.Intn(pages), rng.Uint64()
			if _, err := m.Run(p, p.Thread(rng.Intn(3)), func(e *kernel.Env) error {
				return e.WriteU64(va+uint64(i)*mem.PageSize, v)
			}); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
		case r < 85:
			v := rng.Uint64()
			if _, err := m.Run(p, p.Thread(1), func(e *kernel.Env) error {
				e.T.Touch(func(c *caps.Context) { c.R[3] = v })
				return nil
			}); err != nil {
				t.Fatalf("op %d touch: %v", op, err)
			}
		default:
			m.TakeCheckpoint()
			if !m.LastAudit.Ok() {
				t.Fatalf("op %d: audit violations after checkpoint: %v", op, m.LastAudit.Violations)
			}
		}
	}
	m.TakeCheckpoint()
	if !m.LastAudit.Ok() {
		t.Fatalf("audit violations after final checkpoint: %v", m.LastAudit.Violations)
	}
	return p, va
}

// TestDifferentialDigest is the differential satellite: the same seeded
// workload must yield identical logical state digests across every copy
// method × persistence mode — before the crash (runtime and backup digest)
// and after restore — even though page placement, fault counts and timings
// all differ between cells.
func TestDifferentialDigest(t *testing.T) {
	type cell struct {
		name                  string
		refRuntime, refBackup uint64
		postRuntime           uint64
	}
	for _, seed := range []uint64{1, 7, 42} {
		var cells []cell
		for _, wc := range diffMatrix {
			m := newMachine(wc, seed, nil)
			driveWorkload(t, m, seed, 220)
			c := cell{
				name:       wc.name,
				refRuntime: audit.StateDigest(m.Tree, m.Memory),
				refBackup:  audit.BackupDigest(m.Ckpt, m.Memory),
			}
			m.Crash()
			if err := m.Restore(); err != nil {
				t.Fatalf("%s seed %d: restore: %v", wc.name, seed, err)
			}
			if !m.LastAudit.Ok() {
				t.Fatalf("%s seed %d: audit violations after restore: %v", wc.name, seed, m.LastAudit.Violations)
			}
			c.postRuntime = audit.StateDigest(m.Tree, m.Memory)
			cells = append(cells, c)
		}
		ref := cells[0]
		for _, c := range cells[1:] {
			if c.refRuntime != ref.refRuntime {
				t.Errorf("seed %d: runtime digest %s=%#x != %s=%#x", seed, c.name, c.refRuntime, ref.name, ref.refRuntime)
			}
			if c.refBackup != ref.refBackup {
				t.Errorf("seed %d: backup digest %s=%#x != %s=%#x", seed, c.name, c.refBackup, ref.name, ref.refBackup)
			}
		}
		for _, c := range cells {
			if c.postRuntime != c.refRuntime {
				t.Errorf("seed %d %s: post-restore digest %#x != pre-crash digest %#x", seed, c.name, c.postRuntime, c.refRuntime)
			}
		}
	}
}

// TestBackupDigestMatchesRestoredState: the backup digest computed BEFORE a
// crash describes exactly the state the restore then produces.
func TestBackupDigestMatchesRestoredState(t *testing.T) {
	wc := diffMatrix[0]
	m := newMachine(wc, 5, nil)
	driveWorkload(t, m, 5, 150)
	refBackup := audit.BackupDigest(m.Ckpt, m.Memory)
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := audit.BackupDigest(m.Ckpt, m.Memory); got != refBackup {
		t.Errorf("backup digest changed across crash/restore: %#x -> %#x", refBackup, got)
	}
}

// TestDigestSensitivity: the digest must actually react to logical changes —
// a page write, a register change, and a capability change each move it.
func TestDigestSensitivity(t *testing.T) {
	m := newMachine(diffMatrix[0], 9, nil)
	p, va := driveWorkload(t, m, 9, 40)
	d0 := audit.StateDigest(m.Tree, m.Memory)

	if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
		return e.WriteU64(va, 0xDEAD)
	}); err != nil {
		t.Fatal(err)
	}
	d1 := audit.StateDigest(m.Tree, m.Memory)
	if d1 == d0 {
		t.Error("page write did not change the state digest")
	}

	p.MainThread().Touch(func(c *caps.Context) { c.PC = 0x1234 })
	d2 := audit.StateDigest(m.Tree, m.Memory)
	if d2 == d1 {
		t.Error("register change did not change the state digest")
	}

	if _, err := m.NewProcess("extra", 1); err != nil {
		t.Fatal(err)
	}
	if d3 := audit.StateDigest(m.Tree, m.Memory); d3 == d2 {
		t.Error("new process did not change the state digest")
	}

	// The backup digest must NOT move until the change is checkpointed.
	b0 := audit.BackupDigest(m.Ckpt, m.Memory)
	if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
		return e.WriteU64(va+8, 0xBEEF)
	}); err != nil {
		t.Fatal(err)
	}
	if b1 := audit.BackupDigest(m.Ckpt, m.Memory); b1 != b0 {
		t.Error("uncheckpointed write moved the backup digest")
	}
	m.TakeCheckpoint()
	if b2 := audit.BackupDigest(m.Ckpt, m.Memory); b2 == b0 {
		t.Error("checkpoint did not move the backup digest")
	}
}

// runObserved drives a full observed run — periodic checkpoints, a crash, a
// restore, more work — and returns every observable artifact.
func runObserved(t *testing.T, seed uint64) (chrome, jsonl []byte, snapshot string, runtimeDig, backupDig uint64) {
	t.Helper()
	o := obs.New()
	wc := workloadConfig{"determinism", checkpoint.MethodCOW, true, mem.ModeADR}
	m := newMachine(wc, seed, o)
	p, va := driveWorkload(t, m, seed, 120)
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	p = m.Process("app")
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	for op := 0; op < 40; op++ {
		i, v := rng.Intn(24), rng.Uint64()
		if _, err := m.Run(p, p.Thread(rng.Intn(3)), func(e *kernel.Env) error {
			return e.WriteU64(va+uint64(i)*mem.PageSize, v)
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.TakeCheckpoint()
	if !m.LastAudit.Ok() {
		t.Fatalf("audit violations: %v", m.LastAudit.Violations)
	}

	var cb, jb bytes.Buffer
	if err := o.Trace.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes(), o.Metrics.Snapshot(m.Now()),
		audit.StateDigest(m.Tree, m.Memory), audit.BackupDigest(m.Ckpt, m.Memory)
}

// TestDeterminismRegression is the determinism satellite: running the same
// seeded machine twice must produce byte-identical trace exports, metrics
// snapshots, and digests. CI additionally runs this under -race.
func TestDeterminismRegression(t *testing.T) {
	c1, j1, s1, r1, b1 := runObserved(t, 11)
	c2, j2, s2, r2, b2 := runObserved(t, 11)
	if !bytes.Equal(c1, c2) {
		t.Errorf("Chrome trace not byte-identical across runs (%d vs %d bytes)", len(c1), len(c2))
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSONL trace not byte-identical across runs")
	}
	if s1 != s2 {
		t.Errorf("metrics snapshot not identical:\n--- run1\n%s\n--- run2\n%s", s1, s2)
	}
	if r1 != r2 || b1 != b2 {
		t.Errorf("digests differ across identical runs: runtime %#x/%#x backup %#x/%#x", r1, r2, b1, b2)
	}
	if len(c1) < 100 || len(s1) < 100 {
		t.Errorf("suspiciously small artifacts: trace=%dB snapshot=%dB", len(c1), len(s1))
	}
}

// TestObservationDoesNotPerturbTiming: attaching the full observer (trace +
// metrics + audit) must not move simulated time or state by one bit relative
// to a dark run — observation is free in simulated time.
func TestObservationDoesNotPerturbTiming(t *testing.T) {
	run := func(o *obs.Observer, auditOn bool) (int64, uint64) {
		cfg := kernel.DefaultConfig()
		cfg.Cores = 4
		cfg.CheckpointEvery = 0
		cfg.SkipDefaultServices = true
		cfg.Seed = 3
		cfg.Mem.Persist = mem.ModeADR
		cfg.Mem.CrashSeed = 3
		cfg.Audit = auditOn
		cfg.Obs = o
		m := kernel.New(cfg)
		driveWorkload(t, m, 3, 120)
		m.Crash()
		if err := m.Restore(); err != nil {
			t.Fatal(err)
		}
		return int64(m.Now()), audit.StateDigest(m.Tree, m.Memory)
	}
	darkNow, darkDig := run(nil, false)
	litNow, litDig := run(obs.New(), true)
	if darkNow != litNow {
		t.Errorf("observer moved simulated time: dark %dns, observed %dns", darkNow, litNow)
	}
	if darkDig != litDig {
		t.Errorf("observer changed state: dark %#x, observed %#x", darkDig, litDig)
	}
}

// TestAuditorCatchesCorruption: the auditor must actually detect a broken
// invariant — corrupt a backup slot version above the committed round and
// expect a violation.
func TestAuditorCatchesCorruption(t *testing.T) {
	m := newMachine(diffMatrix[0], 13, nil)
	driveWorkload(t, m, 13, 60)
	if !m.LastAudit.Ok() {
		t.Fatalf("clean machine already had violations: %v", m.LastAudit.Violations)
	}

	var victim *caps.ORoot
	m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
		if victim == nil && r.Kind == caps.KindThread {
			victim = r
		}
	})
	if victim == nil {
		t.Fatal("no thread root found")
	}
	victim.Ver[0] = m.Ckpt.CommittedVersion() + 10

	res := m.Auditor.Check(m.Tree, "corruption-test")
	if res.Ok() {
		t.Fatal("auditor missed a backup slot tagged above the committed version")
	}
	found := false
	for _, v := range res.Violations {
		if containsAll(v, "slot", "above committed") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an above-committed violation, got: %v", res.Violations)
	}
}

// TestAuditorCatchesStaleMemo: a store straight into Memory.Data skips
// mem's generation bump, so the memoized sum of that committed backup page
// no longer matches its bytes and the memo-fed digest cannot see the write.
// Invariant 7 must name the frame in the very Check that computed that
// digest.
func TestAuditorCatchesStaleMemo(t *testing.T) {
	m := newMachine(diffMatrix[0], 17, nil)
	driveWorkload(t, m, 17, 60)
	pages := committedBackupPages(m)
	if len(pages) == 0 {
		t.Fatal("no committed backup page")
	}
	victim := pages[0]
	before := m.Auditor.Check(m.Tree, "before")
	if !before.Ok() {
		t.Fatalf("clean machine already had violations: %v", before.Violations)
	}
	m.Memory.Data(victim)[0] ^= 0xFF // deliberate read-only contract violation

	res := m.Auditor.Check(m.Tree, "stale-memo-test")
	if res.BackupDigest != before.BackupDigest {
		t.Fatalf("memo-fed BackupDigest moved (%#x -> %#x); the write did not bypass the memo",
			before.BackupDigest, res.BackupDigest)
	}
	if fresh := audit.FreshBackupDigest(m.Ckpt, m.Memory); fresh == res.BackupDigest {
		t.Fatal("fresh-hash BackupDigest missed the write")
	}
	found := false
	for _, v := range res.Violations {
		if containsAll(v, "stale-memo-test", victim.String(), "memoized sum") {
			found = true
		}
	}
	if !found {
		t.Fatalf("auditor missed a stale memoized sum on %v; violations: %v", victim, res.Violations)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !bytes.Contains([]byte(s), []byte(sub)) {
			return false
		}
	}
	return true
}

// TestDigestFullObjectZoo covers every capability kind the digest encodes:
// IPC connections with buffered messages, notifications with pending counts,
// IRQ bindings with pending lines, and swapped-out pages — checkpointed,
// crashed, restored, and digest-compared.
func TestDigestFullObjectZoo(t *testing.T) {
	m := newMachine(diffMatrix[0], 21, nil)
	client, err := m.NewProcess("client", 2)
	if err != nil {
		t.Fatal(err)
	}
	server, err := m.NewProcess("server", 2)
	if err != nil {
		t.Fatal(err)
	}
	va, _, err := client.Mmap(8, caps.PMODefault)
	if err != nil {
		t.Fatal(err)
	}

	conn := client.Connect(server)
	note := server.NewNotification()
	irq := server.BindIRQ(3, server.MainThread())
	if _, err := m.Run(client, client.MainThread(), func(e *kernel.Env) error {
		e.IPCCall(conn, []byte("zoo-message"))
		e.Signal(note)
		e.Signal(note)
		return e.WriteU64(va, 77)
	}); err != nil {
		t.Fatal(err)
	}
	m.RaiseIRQ(irq)

	// Touch several pages, checkpoint, then swap some out so the digest's
	// swapped-page marker and the restore source rules for swap entries
	// both get exercised.
	for i := 0; i < 8; i++ {
		if _, err := m.Run(client, client.Thread(1), func(e *kernel.Env) error {
			return e.WriteU64(va+uint64(i)*mem.PageSize, uint64(i)<<32|7)
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.TakeCheckpoint()
	if _, err := m.EvictColdPages(4); err != nil {
		t.Fatal(err)
	}
	m.TakeCheckpoint()
	if !m.LastAudit.Ok() {
		t.Fatalf("audit violations: %v", m.LastAudit.Violations)
	}

	ref := audit.StateDigest(m.Tree, m.Memory)
	refB := audit.BackupDigest(m.Ckpt, m.Memory)
	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if !m.LastAudit.Ok() {
		t.Fatalf("post-restore violations: %v", m.LastAudit.Violations)
	}
	if got := audit.StateDigest(m.Tree, m.Memory); got != ref {
		t.Errorf("zoo digest changed across restore: %#x -> %#x", ref, got)
	}
	if got := audit.BackupDigest(m.Ckpt, m.Memory); got != refB {
		t.Errorf("zoo backup digest changed across restore: %#x -> %#x", refB, got)
	}
}

// TestStateDigestStability pins the digest definition: a fixed tiny machine
// must produce the same digests forever. If this test breaks, the canonical
// encoding changed — bump it consciously (it invalidates recorded digests
// and the inspect golden's cut digests).
func TestStateDigestStability(t *testing.T) {
	m := newMachine(diffMatrix[0], 2, nil)
	p, err := m.NewProcess("app", 1)
	if err != nil {
		t.Fatal(err)
	}
	va, _, err := p.Mmap(2, caps.PMODefault)
	if err != nil {
		t.Fatal(err)
	}
	// An eternal page separates RestorableDigest from BackupDigest, and a
	// store after the checkpoint separates StateDigest from both.
	ring, _, err := p.Mmap(1, caps.PMOEternal)
	if err != nil {
		t.Fatal(err)
	}
	write := func(at, v uint64) {
		t.Helper()
		if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
			return e.WriteU64(at, v)
		}); err != nil {
			t.Fatal(err)
		}
	}
	write(va, 0x1122334455667788)
	write(ring, 0x99AABBCCDDEEFF00)
	m.TakeCheckpoint()
	write(va+mem.PageSize, 0x0102030405060708)
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"StateDigest", audit.StateDigest(m.Tree, m.Memory), 0x9a20546235df58c7},
		{"BackupDigest", audit.BackupDigest(m.Ckpt, m.Memory), 0x5a59340d388da429},
		{"RestorableDigest", audit.RestorableDigest(m.Ckpt, m.Memory), 0xea2beac14ca8d7a2},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, pinned %#x", c.name, c.got, c.want)
		}
	}
}

func ExampleStateDigest() {
	cfg := kernel.DefaultConfig()
	cfg.SkipDefaultServices = true
	cfg.CheckpointEvery = 0
	m := kernel.New(cfg)
	d1 := audit.StateDigest(m.Tree, m.Memory)
	d2 := audit.StateDigest(m.Tree, m.Memory)
	fmt.Println(d1 == d2)
	// Output: true
}
