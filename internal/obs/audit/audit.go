// Package audit computes deterministic digests of the machine's logical
// state and checks cross-layer invariants of the checkpoint protocol.
//
// Two digests are defined:
//
//   - The runtime state digest covers everything reachable from the runtime
//     capability tree: object identities, per-kind logical fields, and the
//     CONTENT of every mapped memory page. Physical frame numbers, hotness
//     counters, write-protection bits and other volatile placement details
//     are deliberately excluded, so two machines holding the same logical
//     state digest identically even when one cached pages in DRAM and the
//     other kept them in NVM — this is what makes the digest usable for
//     differential tests across copy methods and persistence modes.
//
//   - The backup digest covers the state a crash at this instant would
//     restore: for every object reachable from the backup root, the newest
//     committed snapshot, with PMO page content read through an independent
//     reimplementation of the §4.2/§4.3.3 version rules.
//
// Digests are two-level 64-bit FNV-1a. The outer level hashes a canonical
// byte encoding of the object fields; each resident page enters it not as
// its 4 KiB of content but as its own FNV-1a-64 sum (the inner level),
// read from mem's generation-keyed memo (mem.Memory.Sum). A digest therefore
// costs O(pages), not O(resident bytes). The memo is safe to trust here
// because every byte mutator — InjectRot, InjectPoison and ADR crash damage
// included — drops it, and Auditor.Check verifies every memo against a fresh
// hash (invariant 7) before it computes the digests. Identical seeds must
// produce identical digests (the determinism regression test relies on
// byte-for-byte stability).
package audit

import (
	"fmt"

	"treesls/internal/alloc"
	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/journal"
	"treesls/internal/mem"
)

// digest is an FNV-1a accumulator with canonical encoders. Tags separate
// fields of variable-length encodings so no two distinct states collide by
// concatenation ambiguity. sum yields a page's FNV-1a-64 content sum, the
// inner level of the two-level encoding (mem.Memory.Sum in every digest
// this package exports).
type digest struct {
	h   uint64
	sum func(mem.PageID) uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest(sum func(mem.PageID) uint64) *digest {
	return &digest{h: fnvOffset, sum: sum}
}

func (d *digest) byte(b byte) {
	d.h ^= uint64(b)
	d.h *= fnvPrime
}

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v >> (8 * i)))
	}
}

func (d *digest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	h := d.h
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	d.h = h
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

// Page-slot markers in the canonical encoding.
const (
	markContent  = 0 // followed by the page's FNV-1a-64 content sum
	markSwapped  = 1 // page lives on the swap device
	markNil      = 2 // slot exists but holds no page
	markNoSource = 3 // backup entry with no recoverable source
	markEternal  = 4 // eternal PMO content excluded (RestorableDigest)
)

// pageLeaf encodes one resident page: markContent, then the page's
// FNV-1a-64 sum (the value mem.PageSum computes over its bytes) in place of
// its 4 KiB.
func (d *digest) pageLeaf(p mem.PageID) {
	d.byte(markContent)
	d.u64(d.sum(p))
}

// StateDigest hashes the logical state reachable from the runtime capability
// tree. Page sums come from mem.Memory.Sum, which is free in simulated time —
// auditing never perturbs lane clocks.
func StateDigest(tree *caps.Tree, memory *mem.Memory) uint64 {
	return stateDigest(tree, memory.Sum)
}

func stateDigest(tree *caps.Tree, sum func(mem.PageID) uint64) uint64 {
	d := newDigest(sum)
	tree.Walk(func(o caps.Object) {
		d.byte(byte(o.Kind()))
		d.u64(o.ID())
		switch v := o.(type) {
		case *caps.CapGroup:
			d.str(v.Name)
			d.u64(uint64(v.NumSlots()))
			for i := 0; i < v.NumSlots(); i++ {
				c := v.Cap(i)
				if c.Obj == nil {
					d.u64(0)
					continue
				}
				d.u64(c.Obj.ID())
				d.byte(byte(c.Rights))
			}
		case *caps.Thread:
			d.u64(v.Ctx.PC)
			d.u64(v.Ctx.SP)
			for _, r := range v.Ctx.R {
				d.u64(r)
			}
			d.u64(uint64(int64(v.Sched.Priority)))
			d.u64(uint64(int64(v.Sched.Affinity)))
			d.u64(uint64(v.Sched.TimeSlice))
			// Running is a scheduling instant, not logical state: a
			// restore revives running threads as runnable.
			st := v.State
			if st == caps.ThreadRunning {
				st = caps.ThreadRunnable
			}
			d.byte(byte(st))
		case *caps.VMSpace:
			d.u64(uint64(v.NumRegions()))
			v.ForEachRegion(func(r *caps.VMRegion) {
				d.u64(r.VABase)
				d.u64(r.NumPages)
				d.u64(r.PMO.ID())
				d.u64(r.PMOOffset)
				d.byte(byte(r.Perm))
			})
		case *caps.PMO:
			d.byte(byte(v.Type))
			d.u64(v.SizePages)
			v.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
				d.u64(idx)
				switch {
				case s.SwappedOut:
					d.byte(markSwapped)
				case s.Page.IsNil():
					d.byte(markNil)
				default:
					d.pageLeaf(s.Page)
				}
				return true
			})
		case *caps.IPCConn:
			d.u64(objID(v.Client))
			d.u64(objID(v.Server))
			d.bytes(v.Buf)
			d.u64(v.Seq)
		case *caps.Notification:
			d.u64(uint64(int64(v.Count)))
			d.u64(uint64(v.NumWaiters()))
		case *caps.IRQNotification:
			d.u64(uint64(int64(v.Line)))
			d.u64(uint64(v.Pending))
			d.u64(objID(v.Handler))
		}
	})
	return d.h
}

func objID(o caps.Object) uint64 {
	// Typed nils must not reach Object.ID; callers pass concrete pointers.
	switch v := o.(type) {
	case *caps.Thread:
		if v == nil {
			return 0
		}
	case nil:
		return 0
	}
	return o.ID()
}

// restoreSource reimplements the version rules of §4.2/§4.3.3 independently
// of the checkpoint package (an intentional double bookkeeping: a bug in
// either implementation shows up as a digest or invariant mismatch).
// It returns the slot index, or markSwapped/markNoSource sentinels as
// negative values -1 and -2.
func restoreSource(cp *caps.CkptPage, committed uint64) int {
	valid := func(p mem.PageID) bool { return !p.IsNil() && p.Kind == mem.KindNVM }
	for i := 0; i < 2; i++ { // rule 1
		if valid(cp.Page[i]) && cp.Ver[i] == committed && cp.Ver[i] != 0 {
			return i
		}
	}
	if cp.Swap != 0 {
		return -1
	}
	if valid(cp.Page[1]) && cp.Ver[1] == 0 { // rule 2
		return 1
	}
	src, best := -2, uint64(0) // rule 3
	for i := 0; i < 2; i++ {
		if valid(cp.Page[i]) && cp.Ver[i] != 0 && cp.Ver[i] <= committed && cp.Ver[i] > best {
			src, best = i, cp.Ver[i]
		}
	}
	return src
}

// BackupDigest hashes the state a restore at this instant would produce:
// every object reachable from the backup root through its newest committed
// snapshot. The reachability walk mirrors the restore discovery (DFS in
// snapshot slot order), so the visit order — and the digest — is
// deterministic.
func BackupDigest(m *checkpoint.Manager, memory *mem.Memory) uint64 {
	return backupDigest(m, memory.Sum, true)
}

// RestorableDigest hashes only the state a restore ROLLS BACK to: eternal
// PMO page content is excluded. Eternal pages (§5) deliberately survive
// recovery with whatever the device last wrote, so two captures of the same
// checkpoint version can legitimately differ there; everything a checkpoint
// promises to reproduce is covered. The cluster cut protocol announces this
// digest — it must verify bit-identically after any recovery to the cut.
func RestorableDigest(m *checkpoint.Manager, memory *mem.Memory) uint64 {
	return backupDigest(m, memory.Sum, false)
}

func backupDigest(m *checkpoint.Manager, sum func(mem.PageID) uint64, includeEternal bool) uint64 {
	d := newDigest(sum)
	committed := m.CommittedVersion()
	root := m.RootORoot()
	if root == nil || committed == 0 {
		return d.h
	}
	seen := make(map[uint64]bool)
	var visit func(r *caps.ORoot)
	visit = func(r *caps.ORoot) {
		if r == nil || seen[r.ObjID] {
			return
		}
		seen[r.ObjID] = true
		snap, ver := r.LatestCommitted(committed)
		d.byte(byte(r.Kind))
		d.u64(r.ObjID)
		if snap == nil {
			d.byte(markNoSource)
			return
		}
		_ = ver // version numbers differ across checkpoint cadences; content is what matters
		switch s := snap.(type) {
		case *caps.CapGroupSnap:
			d.str(s.Name)
			d.u64(uint64(len(s.Slots)))
			for _, bc := range s.Slots {
				if bc.Root == nil {
					d.u64(0)
					continue
				}
				d.u64(bc.Root.ObjID)
				d.byte(byte(bc.Rights))
			}
			for _, bc := range s.Slots {
				visit(bc.Root)
			}
		case *caps.ThreadSnap:
			d.u64(s.Ctx.PC)
			d.u64(s.Ctx.SP)
			for _, reg := range s.Ctx.R {
				d.u64(reg)
			}
			d.u64(uint64(int64(s.Sched.Priority)))
			d.u64(uint64(int64(s.Sched.Affinity)))
			d.u64(uint64(s.Sched.TimeSlice))
			st := s.State
			if st == caps.ThreadRunning {
				st = caps.ThreadRunnable
			}
			d.byte(byte(st))
		case *caps.VMSpaceSnap:
			d.u64(uint64(len(s.Regions)))
			for i := range s.Regions {
				rs := &s.Regions[i]
				d.u64(rs.VABase)
				d.u64(rs.NumPages)
				d.u64(rs.PMORoot.ObjID)
				d.u64(rs.PMOOffset)
				d.byte(byte(rs.Perm))
			}
			for i := range s.Regions {
				visit(s.Regions[i].PMORoot)
			}
		case *caps.PMOSnap:
			d.byte(byte(s.Type))
			d.u64(s.SizePages)
			if s.Type == caps.PMOEternal && !includeEternal {
				d.byte(markEternal)
				return
			}
			s.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
				if cp.Born > committed {
					return true // stillborn entry: not part of restorable state
				}
				d.u64(idx)
				switch src := restoreSource(cp, committed); src {
				case -1:
					d.byte(markSwapped)
				case -2:
					d.byte(markNoSource)
				default:
					d.pageLeaf(cp.Page[src])
				}
				return true
			})
		case *caps.IPCConnSnap:
			d.u64(rootID(s.ClientRoot))
			d.u64(rootID(s.ServerRoot))
			d.bytes(s.Buf)
			d.u64(s.Seq)
			visit(s.ClientRoot)
			visit(s.ServerRoot)
		case *caps.NotificationSnap:
			d.u64(uint64(int64(s.Count)))
			d.u64(uint64(len(s.Waiters)))
			for _, w := range s.Waiters {
				d.u64(rootID(w))
			}
			for _, w := range s.Waiters {
				visit(w)
			}
		case *caps.IRQNotificationSnap:
			d.u64(uint64(int64(s.Line)))
			d.u64(uint64(s.Pending))
			d.u64(rootID(s.HandlerRoot))
			visit(s.HandlerRoot)
		}
	}
	visit(root)
	return d.h
}

func rootID(r *caps.ORoot) uint64 {
	if r == nil {
		return 0
	}
	return r.ObjID
}

// Result is one audit's outcome.
type Result struct {
	// Where labels the audit point ("checkpoint", "restore", ...).
	Where string
	// RuntimeDigest and BackupDigest are the two state digests at the
	// audit instant.
	RuntimeDigest uint64
	BackupDigest  uint64
	// Violations lists every invariant breach found (empty = clean).
	Violations []string
}

// Ok reports whether the audit found no violations.
func (r Result) Ok() bool { return len(r.Violations) == 0 }

// Auditor checks cross-layer invariants of the checkpoint protocol. It is
// wired by the kernel and invoked after every checkpoint and restore when
// auditing is enabled.
type Auditor struct {
	Mem   *mem.Memory
	Alloc *alloc.Allocator
	Jrnl  *journal.Journal
	Ckpt  *checkpoint.Manager

	// Checks counts audits run; TotalViolations accumulates across them.
	Checks          uint64
	TotalViolations uint64
	// FirstFailure is the first audit that found a violation: later
	// clean audits do not hide it.
	FirstFailure Result
}

// Check runs every invariant against the current state and computes both
// digests. tree may be nil (crashed machine: only backup-side checks run).
func (a *Auditor) Check(tree *caps.Tree, where string) Result {
	res := Result{Where: where}
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	m := a.Ckpt
	committed := m.CommittedVersion()

	// Invariant 1: the in-memory committed version mirrors the durable
	// commit word — between operations they must agree. One exception:
	// under deferred commit publication (cluster consistent cut) the
	// word lawfully lags in-memory state by exactly the prepared round
	// until PublishCommit.
	if dv := m.DurableVersion(); dv != committed &&
		!(m.PreparedVersion() == committed && dv+1 == committed) {
		bad("%s: committed version %d != durable commit word %d", where, committed, dv)
	}

	// Invariant 2: no journal record may be pending between operations —
	// a pending record means a crashed protocol step leaked.
	if rec := a.Jrnl.PendingRecord(); rec != nil {
		bad("%s: journal record pending between operations (op=%v seq=%d)", where, rec.Op, rec.Seq)
	}

	// Invariant 3: no backup slot may be tagged above the committed
	// version once an operation completes (uncommitted tags are transient
	// inside TakeCheckpoint, scrubbed by restore).
	m.ForEachRoot(func(r *caps.ORoot) {
		for i := 0; i < 2; i++ {
			if r.Ver[i] > committed {
				bad("%s: object %d (%v) slot %d tagged v%d above committed v%d",
					where, r.ObjID, r.Kind, i, r.Ver[i], committed)
			}
			if r.Backup[i] == nil && r.Ver[i] != 0 {
				bad("%s: object %d slot %d has version %d but no snapshot", where, r.ObjID, i, r.Ver[i])
			}
		}
		if snap, ok := r.Backup[0].(*caps.PMOSnap); ok {
			a.checkPMOSnap(&res, where, r, snap, committed)
		}
	})

	// Invariant 4: every object reachable from the backup root must have
	// a committed snapshot (restorability).
	if committed > 0 {
		a.checkBackupReachable(&res, where, committed)
	}

	// Invariant 5: runtime page placement bookkeeping.
	if tree != nil {
		a.checkRuntimePages(&res, where, tree)
	}

	// Invariant 6: the buddy allocator's free lists are structurally sound.
	if err := a.Alloc.CheckInvariants(); err != nil {
		bad("%s: allocator: %v", where, err)
	}

	// Invariant 7: every memoized frame sum equals a fresh hash of the
	// frame's bytes — no store bypassed mem's generation bump, so the
	// checkpoint digests established from the memo are true.
	for _, p := range a.Mem.StaleSums() {
		bad("%s: frame %v: memoized sum disagrees with its bytes", where, p)
	}

	res.BackupDigest = BackupDigest(m, a.Mem)
	if tree != nil {
		res.RuntimeDigest = StateDigest(tree, a.Mem)
	}
	a.Checks++
	if a.TotalViolations == 0 && !res.Ok() {
		a.FirstFailure = res
	}
	a.TotalViolations += uint64(len(res.Violations))
	return res
}

// checkPMOSnap validates one checkpointed radix tree.
func (a *Auditor) checkPMOSnap(res *Result, where string, r *caps.ORoot, snap *caps.PMOSnap, committed uint64) {
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	nvmFrames := a.Mem.NVMFrames()
	snap.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
		for i := 0; i < 2; i++ {
			if cp.Ver[i] > committed {
				bad("%s: PMO %d page %d slot %d tagged v%d above committed v%d",
					where, r.ObjID, idx, i, cp.Ver[i], committed)
			}
			p := cp.Page[i]
			if p.IsNil() {
				continue
			}
			if p.Kind == mem.KindDRAM {
				bad("%s: PMO %d page %d slot %d points at volatile DRAM frame %d",
					where, r.ObjID, idx, i, p.Frame)
			}
			if p.Kind == mem.KindNVM && int(p.Frame) >= nvmFrames {
				bad("%s: PMO %d page %d slot %d frame %d out of NVM bounds (%d)",
					where, r.ObjID, idx, i, p.Frame, nvmFrames)
			}
		}
		if cp.Born <= committed && restoreSource(cp, committed) == -2 {
			bad("%s: PMO %d page %d (born v%d) has no restore source at committed v%d",
				where, r.ObjID, idx, cp.Born, committed)
		}
		return true
	})
}

// checkBackupReachable verifies every root reachable from the backup root
// holds a committed snapshot — the precondition of restore discovery.
func (a *Auditor) checkBackupReachable(res *Result, where string, committed uint64) {
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	seen := make(map[uint64]bool)
	var visit func(r *caps.ORoot)
	visit = func(r *caps.ORoot) {
		if r == nil || seen[r.ObjID] {
			return
		}
		seen[r.ObjID] = true
		snap, _ := r.LatestCommitted(committed)
		if snap == nil {
			bad("%s: object %d (%v) reachable from backup root but has no committed snapshot",
				where, r.ObjID, r.Kind)
			return
		}
		switch s := snap.(type) {
		case *caps.CapGroupSnap:
			for _, bc := range s.Slots {
				visit(bc.Root)
			}
		case *caps.VMSpaceSnap:
			for i := range s.Regions {
				visit(s.Regions[i].PMORoot)
			}
		case *caps.IPCConnSnap:
			visit(s.ClientRoot)
			visit(s.ServerRoot)
		case *caps.NotificationSnap:
			for _, w := range s.Waiters {
				visit(w)
			}
		case *caps.IRQNotificationSnap:
			visit(s.HandlerRoot)
		}
	}
	visit(a.Ckpt.RootORoot())
}

// checkRuntimePages validates runtime page placement: mapped slots hold
// pages, no two slots alias a frame, and the manager's DRAM-cache count
// matches the tree.
func (a *Auditor) checkRuntimePages(res *Result, where string, tree *caps.Tree) {
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	owners := make(map[mem.PageID]uint64)
	dram := 0
	tree.Walk(func(o caps.Object) {
		pmo, ok := o.(*caps.PMO)
		if !ok {
			return
		}
		pmo.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
			if s.SwappedOut {
				if !s.Page.IsNil() {
					bad("%s: PMO %d page %d swapped out but still holds frame %d",
						where, pmo.ID(), idx, s.Page.Frame)
				}
				return true
			}
			if s.Page.IsNil() {
				bad("%s: PMO %d page %d mapped but holds no frame", where, pmo.ID(), idx)
				return true
			}
			// Media invariant: a live runtime page must never carry poison
			// past a protocol boundary. Restore either verifies an adopted
			// source or rewrites the frame whole (which clears poison), so
			// poison here means a machine-check would fire on normal access.
			if a.Mem.Poisoned(s.Page, 0, mem.PageSize) {
				bad("%s: PMO %d page %d live runtime frame %v is poisoned",
					where, pmo.ID(), idx, s.Page)
			}
			if prev, dup := owners[s.Page]; dup {
				bad("%s: frame %v aliased by PMO %d page %d and object %d",
					where, s.Page, pmo.ID(), idx, prev)
			}
			owners[s.Page] = pmo.ID()
			if s.Page.Kind == mem.KindDRAM {
				dram++
			}
			return true
		})
	})
	if cached := a.Ckpt.CachedPages(); dram != cached {
		bad("%s: %d DRAM pages in the tree but manager counts %d cached", where, dram, cached)
	}
}
