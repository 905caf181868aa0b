package audit_test

import (
	"testing"

	"treesls/internal/caps"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/obs/audit"
	"treesls/internal/repl"
)

// residentPages returns every frame a digest can fold in: the runtime
// tree's mapped pages and both slots of every backup page entry.
func residentPages(m *kernel.Machine) []mem.PageID {
	var out []mem.PageID
	if m.Tree != nil {
		m.Tree.Walk(func(o caps.Object) {
			if pmo, ok := o.(*caps.PMO); ok {
				pmo.ForEachPage(func(_ uint64, s *caps.PageSlot) bool {
					if !s.SwappedOut && !s.Page.IsNil() {
						out = append(out, s.Page)
					}
					return true
				})
			}
		})
	}
	m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
		for _, b := range r.Backup {
			if snap, ok := b.(*caps.PMOSnap); ok {
				snap.Pages.Walk(func(_ uint64, cp *caps.CkptPage) bool {
					for _, p := range cp.Page {
						if !p.IsNil() {
							out = append(out, p)
						}
					}
					return true
				})
			}
		}
	})
	return out
}

// committedBackupPages returns the frames a restore at this instant would
// read non-eternal PMO pages from.
func committedBackupPages(m *kernel.Machine) []mem.PageID {
	committed := m.Ckpt.CommittedVersion()
	var out []mem.PageID
	m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
		snap, _ := r.LatestCommitted(committed)
		s, ok := snap.(*caps.PMOSnap)
		if !ok || s.Type == caps.PMOEternal {
			return
		}
		s.Pages.Walk(func(_ uint64, cp *caps.CkptPage) bool {
			if src := audit.RestoreSource(cp, committed); cp.Born <= committed && src >= 0 {
				out = append(out, cp.Page[src])
			}
			return true
		})
	})
	return out
}

// requireMemoEqualsFresh asserts that each digest read through mem's memo
// equals the same digest over freshly hashed page bytes, and that every
// resident frame's memoized sum is the fresh FNV-1a-64 of its bytes.
func requireMemoEqualsFresh(t *testing.T, m *kernel.Machine, where string) {
	t.Helper()
	if m.Tree != nil {
		if got, want := audit.StateDigest(m.Tree, m.Memory), audit.FreshStateDigest(m.Tree, m.Memory); got != want {
			t.Fatalf("%s: StateDigest %#x != fresh %#x", where, got, want)
		}
	}
	if got, want := audit.BackupDigest(m.Ckpt, m.Memory), audit.FreshBackupDigest(m.Ckpt, m.Memory); got != want {
		t.Fatalf("%s: BackupDigest %#x != fresh %#x", where, got, want)
	}
	if got, want := audit.RestorableDigest(m.Ckpt, m.Memory), audit.FreshRestorableDigest(m.Ckpt, m.Memory); got != want {
		t.Fatalf("%s: RestorableDigest %#x != fresh %#x", where, got, want)
	}
	for _, p := range residentPages(m) {
		if got, want := m.Memory.Sum(p), mem.PageSum(m.Memory.Data(p)); got != want {
			t.Fatalf("%s: frame %v: Sum %#x != PageSum %#x", where, p, got, want)
		}
	}
	if stale := m.Memory.StaleSums(); len(stale) > 0 {
		t.Fatalf("%s: stale memoized sums on %v", where, stale)
	}
}

// TestMemoDigestsMatchFreshHashes: across every copy method × persistence
// mode, the memo-fed digests equal the fresh-hash reference after a mixed
// workload (with hybrid-copy migration), after a checkpoint whose copies
// inherit their sources' sums through CopyPage, and across crash + restore.
func TestMemoDigestsMatchFreshHashes(t *testing.T) {
	for _, wc := range diffMatrix {
		t.Run(wc.name, func(t *testing.T) {
			m := newMachine(wc, 31, nil)
			p, va := driveWorkload(t, m, 31, 200)
			requireMemoEqualsFresh(t, m, "workload")
			if wc.hybrid && m.Ckpt.Stats.Migrations == 0 {
				t.Fatal("hybrid cell migrated no page to DRAM")
			}

			// Dirty a few pages and warm their memos, so the next
			// checkpoint's CopyPage hands the sums on to the backup copies.
			dirty := func(v uint64) {
				for i := 0; i < 4; i++ {
					if _, err := m.Run(p, p.MainThread(), func(e *kernel.Env) error {
						return e.WriteU64(va+uint64(i)*mem.PageSize, uint64(i)+v)
					}); err != nil {
						t.Fatal(err)
					}
				}
				audit.StateDigest(m.Tree, m.Memory)
			}
			dirty(0xC0FFEE)
			m.TakeCheckpoint()
			requireMemoEqualsFresh(t, m, "copy hand-off")

			// Crash with memoized, unflushed stores: under ADR the crash
			// drops or tears their lines, which must drop the memos too.
			dirty(0xBADC0DE)
			m.Crash()
			requireMemoEqualsFresh(t, m, "crashed")
			if err := m.Restore(); err != nil {
				t.Fatal(err)
			}
			requireMemoEqualsFresh(t, m, "restored")
		})
	}
}

// TestMemoDigestsMatchFreshAfterFailover: a promoted standby's memo-fed
// digests equal the fresh-hash reference, and its BackupDigest reproduces
// the primary's ledger entry.
func TestMemoDigestsMatchFreshAfterFailover(t *testing.T) {
	for _, wc := range []workloadConfig{diffMatrix[0], diffMatrix[3]} {
		t.Run(wc.name, func(t *testing.T) {
			m := newMachine(wc, 37, nil)
			rep := repl.Attach(m, nil, repl.Config{FullSyncEvery: 3})
			driveWorkload(t, m, 37, 200)
			if at := rep.LastAckAt(); at > m.Now() {
				m.SettleTo(at)
			}
			fo, err := rep.FailoverAt(m.Now())
			if err != nil {
				t.Fatal(err)
			}
			if fo.Digest != fo.ExpectedDigest {
				t.Fatalf("standby digest %#x != ledger digest %#x (v%d)", fo.Digest, fo.ExpectedDigest, fo.Version)
			}
			requireMemoEqualsFresh(t, m, "primary")
			requireMemoEqualsFresh(t, fo.Machine, "promoted standby")
		})
	}
}

// TestMediaDamageMovesBackupDigests: silent rot and poison on a committed
// backup page drop that frame's memo, so both backup-side digests move.
func TestMediaDamageMovesBackupDigests(t *testing.T) {
	for _, inj := range []struct {
		name string
		do   func(*mem.Memory, mem.PageID)
	}{
		{"rot", func(mm *mem.Memory, p mem.PageID) { mm.InjectRot(p, 0, mem.LineSize, 1) }},
		{"poison", func(mm *mem.Memory, p mem.PageID) { mm.InjectPoison(p, 0, mem.LineSize, 1) }},
	} {
		t.Run(inj.name, func(t *testing.T) {
			m := newMachine(diffMatrix[0], 41, nil)
			driveWorkload(t, m, 41, 120)
			pages := committedBackupPages(m)
			if len(pages) == 0 {
				t.Fatal("no committed backup page")
			}
			b0, r0 := audit.BackupDigest(m.Ckpt, m.Memory), audit.RestorableDigest(m.Ckpt, m.Memory)
			inj.do(m.Memory, pages[0])
			if b1 := audit.BackupDigest(m.Ckpt, m.Memory); b1 == b0 {
				t.Errorf("%s on %v left BackupDigest at %#x", inj.name, pages[0], b0)
			}
			if r1 := audit.RestorableDigest(m.Ckpt, m.Memory); r1 == r0 {
				t.Errorf("%s on %v left RestorableDigest at %#x", inj.name, pages[0], r0)
			}
			requireMemoEqualsFresh(t, m, inj.name)
		})
	}
}
