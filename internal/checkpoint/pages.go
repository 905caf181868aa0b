package checkpoint

import (
	"fmt"

	"treesls/internal/alloc"
	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/obs"
	"treesls/internal/simclock"
)

// pmoSnap returns (creating on demand) the singleton PMOSnap of r. Unlike
// other object kinds, a PMO keeps ONE long-lived backup structure whose
// pages carry their own versions (§4.2); slot 0 holds it. The snapshot's
// slot version is set once, to the round that created it, and never
// advanced: advancing it would un-commit the PMO if a later round crashed
// mid-checkpoint, while page-level versions already carry all content
// history the restore rules need.
func (m *Manager) pmoSnap(lane *simclock.Lane, r *caps.ORoot, pmo *caps.PMO, round uint64) *caps.PMOSnap {
	if r.Backup[0] == nil {
		lane.Charge(m.model.SlabAlloc)
		m.Stats.BackupBytes += alloc.ClassPMO.Size()
		r.Backup[0] = &caps.PMOSnap{Type: pmo.Type, SizePages: pmo.SizePages}
		r.Ver[0] = round
	}
	return r.Backup[0].(*caps.PMOSnap)
}

// checkpointPMO checkpoints one PMO during the STW pause: it reuses the
// checkpointed radix tree, adding entries for pages touched since the last
// round, and reclaims entries for pages removed since then. Page *contents*
// are not copied here — the runtime NVM page doubles as the consistent copy
// (Figure 6a), and DRAM-cached pages are stop-and-copied by the hybrid-copy
// cores.
func (m *Manager) checkpointPMO(lane *simclock.Lane, pmo *caps.PMO, r *caps.ORoot, round uint64, full bool, rep *Report) {
	snap := m.pmoSnap(lane, r, pmo, round)
	snap.SizePages = pmo.SizePages
	nodesBefore := snap.Pages.Nodes()

	// Incremental root visit (Table 3: PMO incremental ~0.03 µs).
	lane.Charge(m.model.RadixVisit)

	// Eternal PMOs are never write-protected, so their dirty pages never
	// enter Touched: under ADR their in-cache stores must be written back
	// here or the runtime page (their only restore source) would lose
	// them at the crash. Eternal state has always-current semantics — no
	// rollback guarantee — but what restore reads must at least be the
	// bytes that were durable at the last checkpoint.
	if pmo.Type == caps.PMOEternal && m.cfg.Method != MethodStopAndCopy && m.memory.Mode() == mem.ModeADR {
		pmo.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
			if s.Dirty && s.Page.Kind == mem.KindNVM {
				m.flushPage(lane, s.Page)
				s.Dirty = false
			}
			return true
		})
	}

	if m.cfg.Method == MethodStopAndCopy {
		m.stopAndCopyPMO(lane, pmo, snap, round, rep)
		if grown := snap.Pages.Nodes() - nodesBefore; grown > 0 {
			m.Stats.BackupBytes += alloc.ClassRadixNode.Size() * grown
		}
		caps.ClearDirty(pmo)
		return
	}

	for _, idx := range pmo.Touched {
		s := pmo.Lookup(idx)
		if s == nil {
			continue // installed and removed within the epoch
		}
		cp, ok := snap.Pages.Get(idx)
		if !ok {
			cp = &caps.CkptPage{Born: round}
			snap.Pages.Set(idx, cp)
			lane.Charge(m.model.RadixInsert)
			m.Stats.BackupBytes += alloc.ClassCheckpointedPage.Size()
		} else {
			lane.Charge(m.model.RadixVisit)
		}
		if s.Page.Kind == mem.KindDRAM {
			continue // hybrid copy owns cached pages
		}
		// The runtime NVM page becomes "the second backup with
		// version zero" (§4.3.3): it is the consistent copy for the
		// version being committed, because it is write-protected now
		// and was saved to Page[0] by any fault that modified it. Its
		// epoch's stores may still sit in the CPU caches, so it is
		// written back here (drained by the round's pre-commit fence).
		cp.Page[1] = s.Page
		cp.Ver[1] = 0
		m.flushPage(lane, s.Page)
		if pmo.Type != caps.PMOEternal {
			// This commit re-establishes the page as a rule-2 restore
			// source; re-digest it here (it is write-protected until
			// the next fault, so the digest stays true). Eternal pages
			// keep always-current semantics — they are written without
			// faults, so a digest would go stale; they get the poison
			// check only.
			m.checksumPage(lane, s.Page)
		} else {
			m.dropSum(s.Page)
		}
		if cp.Swap != 0 {
			// This round supersedes the swapped content.
			if m.cfg.ReleaseSwapSlot != nil {
				m.cfg.ReleaseSwapSlot(cp.Swap - 1)
			}
			cp.Swap = 0
		}
		if pmo.Type != caps.PMOEternal && s.Writable {
			// Fallback protection for PMOs not mapped in any VM
			// space (the VMSpace pass normally did this).
			s.Writable = false
			lane.Charge(m.model.MarkPageRO)
			rep.PagesMarkedRO++
		}
		s.Dirty = false
	}
	pmo.Touched = pmo.Touched[:0]

	// Reclaim backups of removed pages. Deferred to the commit phase in
	// spirit; see DESIGN.md for the crash-window discussion.
	if len(pmo.Removed) > 0 {
		for _, idx := range pmo.Removed {
			if pmo.Lookup(idx) != nil {
				continue // reinstalled at the same index
			}
			cp, ok := snap.Pages.Get(idx)
			if !ok {
				continue
			}
			if !cp.Page[0].IsNil() {
				m.alloc.FreePageCkpt(lane, cp.Page[0])
				m.Stats.BackupPages--
			}
			m.dropReplica(cp.Page[0])
			m.dropSum(cp.Page[0])
			snap.Pages.Delete(idx)
			lane.Charge(m.model.RadixVisit)
		}
		pmo.Removed = pmo.Removed[:0]
	}

	if grown := snap.Pages.Nodes() - nodesBefore; grown > 0 {
		m.Stats.BackupBytes += alloc.ClassRadixNode.Size() * grown
	}
	caps.ClearDirty(pmo)
	_ = full
}

// stopAndCopyPMO checkpoints a PMO under MethodStopAndCopy: every dirty page
// (hardware dirty bit) is copied into a versioned backup during the pause.
// Pages are never write-protected, so there are no runtime faults — the cost
// moves wholesale into the STW window, which is exactly the trade-off
// Figure 7 illustrates.
func (m *Manager) stopAndCopyPMO(lane *simclock.Lane, pmo *caps.PMO, snap *caps.PMOSnap, round uint64, rep *Report) {
	pmo.Touched = pmo.Touched[:0]
	pmo.Removed = pmo.Removed[:0]
	if pmo.Type == caps.PMOEternal {
		// Eternal pages still need radix entries pointing at the
		// runtime page so restore can find them.
		pmo.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
			cp, ok := snap.Pages.Get(idx)
			if !ok {
				cp = &caps.CkptPage{Born: round}
				snap.Pages.Set(idx, cp)
				lane.Charge(m.model.RadixInsert)
			}
			cp.Page[1] = s.Page
			cp.Ver[1] = 0
			if s.Page.Kind == mem.KindNVM {
				m.flushPage(lane, s.Page)
			}
			m.dropSum(s.Page) // eternal: always-current, never digested
			return true
		})
		return
	}
	pmo.ForEachPage(func(idx uint64, s *caps.PageSlot) bool {
		lane.Charge(m.model.PageTableWalk) // dirty-bit scan
		if !s.Dirty {
			return true
		}
		cp, ok := snap.Pages.Get(idx)
		if !ok {
			cp = &caps.CkptPage{Born: round}
			snap.Pages.Set(idx, cp)
			lane.Charge(m.model.RadixInsert)
			m.Stats.BackupBytes += alloc.ClassCheckpointedPage.Size()
		} else {
			lane.Charge(m.model.RadixVisit)
		}
		ws := m.backupWriteSlot(cp)
		if cp.Page[ws] == s.Page {
			// A restore adopted this backup frame as the runtime page
			// (the version-zero slot doubles as the runtime frame after
			// recovery). That aliasing is sound under COW — the page is
			// write-protected, and a fault copies the content out before
			// the first store lands — but stop-and-copy pages stay
			// writable, so tagging the shared frame as this round's
			// backup would let post-commit stores mutate a committed
			// backup behind its digest. Drop the alias (the frame stays
			// owned by the runtime slot) and copy into a fresh frame.
			cp.Page[ws] = mem.NilPage
			cp.Ver[ws] = 0
			m.dropSum(s.Page)
		}
		if cp.Page[ws].IsNil() {
			p, err := m.alloc.AllocPageCkpt(lane)
			if err != nil {
				return true // out of NVM: page stays dirty, retried next round
			}
			cp.Page[ws] = p
			m.Stats.BackupPages++
		}
		lane.Charge(m.memory.CopyPage(cp.Page[ws], s.Page))
		m.flushPage(lane, cp.Page[ws])
		m.checksumPage(lane, cp.Page[ws])
		cp.Ver[ws] = round
		m.updateReplica(lane, cp.Page[ws])
		s.Dirty = false
		rep.PagesStopCopied++
		m.Stats.PagesCopied++
		m.met.stopCopied.Inc()
		m.met.pagesCopied.Inc()
		if m.traceOn() {
			m.obs.Trace.Instant(lane.ID(), lane.Now(), "page", "stop-copy",
				obs.I("pmo", int64(pmo.ID())), obs.I("idx", int64(idx)))
		}
		return true
	})
}

// HandleWriteFault implements the copy-on-write step (Figure 5 ❻): the
// pre-modification page content — which is exactly the content of the last
// committed checkpoint, since the page was write-protected — is copied to
// the backup page with the current global version, then the page is made
// writable again. It also feeds the hotness tracking of hybrid copy.
func (m *Manager) HandleWriteFault(lane *simclock.Lane, pmo *caps.PMO, idx uint64, s *caps.PageSlot) error {
	r := pmo.ORoot()
	if r == nil || r.Backup[0] == nil {
		return fmt.Errorf("checkpoint: write fault on never-checkpointed PMO %d", pmo.ID())
	}
	snap := r.Backup[0].(*caps.PMOSnap)
	cp, ok := snap.Pages.Get(idx)
	if !ok {
		return fmt.Errorf("checkpoint: write fault on page %d of PMO %d with no checkpointed entry", idx, pmo.ID())
	}
	if cp.Page[0].IsNil() {
		p, err := m.alloc.AllocPageCkpt(lane)
		if err != nil {
			return fmt.Errorf("checkpoint: allocating backup page: %w", err)
		}
		cp.Page[0] = p
		m.Stats.BackupPages++
	}
	lane.Charge(m.memory.CopyPage(cp.Page[0], s.Page))
	// The backup immediately satisfies restore rule 1 once its version is
	// set, so — unlike STW writers, which defer to the round's single
	// pre-commit fence — the fault handler must make the copy durable
	// BEFORE publishing the version. A crash inside this window restores
	// through rule 2 from the still-unmodified runtime page.
	m.flushPage(lane, cp.Page[0])
	m.checksumPage(lane, cp.Page[0])
	m.updateReplica(lane, cp.Page[0])
	m.fence(lane)
	cp.Ver[0] = m.committed

	s.Writable = true
	s.Dirty = true
	s.IdleRounds = 0
	if s.Hotness < ^uint16(0) {
		s.Hotness++
	}
	pmo.Touched = append(pmo.Touched, idx)

	if m.cfg.HybridCopy && !s.OnHotList && s.Hotness >= m.cfg.HotThreshold && pmo.Type != caps.PMOEternal {
		m.active = append(m.active, pageRef{pmo: pmo, snap: snap, idx: idx})
		s.OnHotList = true
		lane.Charge(m.model.HotListAppend)
	}

	m.Stats.COWFaults++
	m.Stats.EpochFaults++
	m.Stats.PagesCopied++
	m.met.cowFaults.Inc()
	m.met.pagesCopied.Inc()
	if m.traceOn() {
		m.obs.Trace.Instant(lane.ID(), lane.Now(), "page", "cow-fault",
			obs.I("pmo", int64(pmo.ID())), obs.I("idx", int64(idx)),
			obs.I("hotness", int64(s.Hotness)))
	}
	return nil
}

// runHybridCopy is step ❸ of Figure 5: the non-leader cores traverse
// stride-partitioned sublists of the dual-function active page list,
// stop-and-copying dirty DRAM-cached pages, migrating newly-hot pages to
// DRAM, and demoting pages that stayed clean too long back to NVM.
// It returns the latest finishing time across the worker lanes that did
// copy work; workers whose clocks advanced only during the parallel walk
// do not extend the copy window.
func (m *Manager) runHybridCopy(workers []*simclock.Lane, start simclock.Time, round uint64, serial bool, rep *Report) simclock.Time {
	_ = serial
	entered := make([]simclock.Time, len(workers))
	for i, w := range workers {
		entered[i] = w.Now()
	}
	keep := m.active[:0]
	for i, ref := range m.active {
		w := workers[i%len(workers)]
		w.Charge(m.model.HotListVisit)
		s := ref.pmo.Lookup(ref.idx)
		if s == nil {
			continue // page removed; drop from the list
		}
		cp, ok := ref.snap.Pages.Get(ref.idx)
		if !ok {
			s.OnHotList = false
			continue
		}
		switch {
		case s.Page.Kind == mem.KindNVM:
			// Newly appended since the last checkpoint: migrate to
			// DRAM (NVM->DRAM migration, Figure 6b).
			if m.cached >= m.cfg.MaxCachedPages {
				s.OnHotList = false
				s.Hotness = 0
				continue
			}
			d := m.memory.AllocDRAM()
			if d.IsNil() {
				s.OnHotList = false
				s.Hotness = 0
				continue
			}
			w.Charge(m.memory.CopyPage(d, s.Page))
			// The old NVM runtime page becomes the latest backup; its
			// epoch's stores must be written back for the commit fence.
			// It is now a versioned restore source exactly like a
			// stop-copied or COW backup, so it joins the replica tier
			// too — without this, a media fault on a migrated-away
			// frame is detectable but unrepairable.
			m.flushPage(w, s.Page)
			m.checksumPage(w, s.Page)
			m.updateReplica(w, s.Page)
			cp.Page[1] = s.Page
			cp.Ver[1] = round
			s.Page = d
			s.Writable = true
			s.Dirty = false
			s.IdleRounds = 0
			m.cached++
			rep.Migrated++
			m.Stats.Migrations++
			m.met.migrations.Inc()
			if m.traceOn() {
				m.obs.Trace.Instant(w.ID(), w.Now(), "page", "migrate-to-dram",
					obs.I("pmo", int64(ref.pmo.ID())), obs.I("idx", int64(ref.idx)))
			}
			keep = append(keep, ref)

		case s.Dirty:
			// Dirty cached page: stop-and-copy into the backup slot
			// not holding the newest committed version.
			ws := m.backupWriteSlot(cp)
			if cp.Page[ws].IsNil() {
				p, err := m.alloc.AllocPageCkpt(w)
				if err != nil {
					// NVM exhausted: keep the page dirty; it
					// will be retried next round.
					keep = append(keep, ref)
					continue
				}
				cp.Page[ws] = p
				m.Stats.BackupPages++
			}
			w.Charge(m.memory.CopyPage(cp.Page[ws], s.Page))
			m.flushPage(w, cp.Page[ws])
			m.checksumPage(w, cp.Page[ws])
			cp.Ver[ws] = round
			m.updateReplica(w, cp.Page[ws])
			s.Dirty = false
			s.IdleRounds = 0
			rep.DirtyDRAMCopied++
			m.Stats.PagesCopied++
			m.met.pagesCopied.Inc()
			if m.traceOn() {
				m.obs.Trace.Instant(w.ID(), w.Now(), "page", "dirty-dram-copy",
					obs.I("pmo", int64(ref.pmo.ID())), obs.I("idx", int64(ref.idx)))
			}
			keep = append(keep, ref)

		default:
			// Clean cached page: age it; demote if cold (DRAM->NVM
			// migration, §4.3.3).
			s.IdleRounds++
			if s.IdleRounds < m.cfg.DemoteAfter {
				keep = append(keep, ref)
				continue
			}
			// Ensure the second backup holds the latest data, then
			// make it the runtime page with version zero.
			latest := m.latestBackupSlot(cp)
			if cp.Page[1].IsNil() {
				p, err := m.alloc.AllocPageCkpt(w)
				if err != nil {
					keep = append(keep, ref)
					continue
				}
				cp.Page[1] = p
				m.Stats.BackupPages++
				latest = 0
			}
			if latest != 1 {
				w.Charge(m.memory.CopyPage(cp.Page[1], s.Page))
				m.flushPage(w, cp.Page[1])
				m.checksumPage(w, cp.Page[1])
				m.Stats.PagesCopied++
			}
			cp.Ver[1] = 0
			m.memory.FreeDRAM(s.Page)
			s.Page = cp.Page[1]
			s.Writable = false
			s.OnHotList = false
			s.Hotness = 0
			s.Dirty = false
			s.IdleRounds = 0
			m.cached--
			rep.Demoted++
			m.Stats.Demotions++
			m.met.demotions.Inc()
			if m.traceOn() {
				m.obs.Trace.Instant(w.ID(), w.Now(), "page", "demote-to-nvm",
					obs.I("pmo", int64(ref.pmo.ID())), obs.I("idx", int64(ref.idx)))
			}
		}
	}
	m.active = keep

	end := start
	for i, w := range workers {
		if w.Now() > entered[i] && w.Now() > end {
			end = w.Now()
		}
	}
	return end
}

// backupWriteSlot picks the CkptPage slot that may be overwritten during an
// in-flight checkpoint: the one NOT holding the newest committed version.
func (m *Manager) backupWriteSlot(cp *caps.CkptPage) int {
	latest := m.latestBackupSlot(cp)
	if latest < 0 {
		return 0
	}
	return 1 - latest
}

// latestBackupSlot returns the slot holding the newest committed version, or
// -1 if neither slot holds one.
func (m *Manager) latestBackupSlot(cp *caps.CkptPage) int {
	best, bestVer := -1, uint64(0)
	for i := 0; i < 2; i++ {
		if !cp.Page[i].IsNil() && cp.Ver[i] != 0 && cp.Ver[i] <= m.committed && cp.Ver[i] >= bestVer {
			best, bestVer = i, cp.Ver[i]
		}
	}
	return best
}

// ---- Backup-page replication (§8 "Data Reliability") -----------------------

type pageReplica struct {
	copy mem.PageID
	sum  uint64
}

// updateReplica refreshes the replica + checksum of a backup page after it
// was (re)written. No-op unless cfg.Replicas > 1.
func (m *Manager) updateReplica(lane *simclock.Lane, p mem.PageID) {
	if m.cfg.Replicas <= 1 || p.IsNil() {
		return
	}
	rep, ok := m.replicas[p]
	if !ok {
		c, err := m.alloc.AllocPageCkpt(lane)
		if err != nil {
			return // replication is best-effort under NVM pressure
		}
		rep = &pageReplica{copy: c}
		m.replicas[p] = rep
	}
	lane.Charge(m.memory.CopyPage(rep.copy, p))
	m.flushPage(lane, rep.copy)
	rep.sum = m.memory.Sum(p)
}

// dropReplica releases the replica of a reclaimed backup page.
func (m *Manager) dropReplica(p mem.PageID) {
	if rep, ok := m.replicas[p]; ok {
		m.alloc.FreePageCkpt(nil, rep.copy)
		delete(m.replicas, p)
	}
}

// Backup-page verification lives in sums.go (verifySource): the poison
// check and the always-on page digest subsume the replica-only checksum
// this file used to carry, and the replica remains the first repair tier.
