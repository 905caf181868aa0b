package checkpoint

// Media-fault tolerance: per-page checksums over every restore-source page
// and content digests over every backup object record, so that NVM media
// damage — uncorrectable (poisoned) lines as well as silent bit rot — is
// *detected* before a restore or a scrub trusts the bytes. Detection turns
// silent corruption into one of three explicit outcomes: repair (replica or
// clean-runtime rebuild), degradation to an older committed version, or a
// named entry in the restore manifest. See DESIGN.md, "Media faults,
// scrubbing, and degraded restore".

import (
	"encoding/binary"
	"hash/fnv"

	"treesls/internal/caps"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// checksumPage records the content digest the manager will demand from
// restore-source page p before trusting it again. Called whenever the
// checkpoint protocol (re)establishes p as a restore source: backup copies
// at their write, rule-2 runtime pages at their covering commit. The digest
// lives beside the CkptPage metadata (Go-modeled, hence atomic); the
// simulated cost of the hashing pass is charged to lane. The value comes
// from the frame's memoized sum, which equals a fresh hash of the bytes:
// establishing a digest may trust the memo, verifying one (verifySource)
// may not.
func (m *Manager) checksumPage(lane *simclock.Lane, p mem.PageID) {
	if m.cfg.DisableChecksums || p.IsNil() || p.Kind != mem.KindNVM {
		return
	}
	m.sums[p] = m.memory.Sum(p)
	if lane != nil {
		lane.Charge(m.model.ChecksumPage)
	}
}

// dropSum forgets the digest of a page leaving restore-source duty (frame
// freed or recycled). Every FreePageCkpt of a tracked page must pass here,
// or a reused frame would be judged against a stale digest.
func (m *Manager) dropSum(p mem.PageID) {
	delete(m.sums, p)
}

// verifySource decides whether restore or scrub may trust the content of
// source page p. Two independent defenses run: the device's poison flag (a
// machine-check read) always fires, and the manager's page digest catches
// silent rot unless cfg.DisableChecksums (pages without a digest — eternal
// PMO pages — get the poison check only). On failure the page is repaired
// in place from its replica when §8 replication is on; returns false when
// the page cannot be proven intact. Both checks re-hash the bytes; they
// never read the frame's memoized sum.
func (m *Manager) verifySource(lane *simclock.Lane, p mem.PageID) bool {
	bad := m.memory.CheckRead(p, 0, mem.PageSize) != nil
	if !bad {
		if want, ok := m.sums[p]; ok {
			if lane != nil {
				lane.Charge(m.model.NVMReadPage + m.model.ChecksumPage)
			}
			bad = pageChecksum(m.memory.Data(p)) != want
		}
	}
	if !bad {
		return true
	}
	if rep, ok := m.replicas[p]; ok {
		if m.memory.CheckRead(rep.copy, 0, mem.PageSize) == nil &&
			pageChecksum(m.memory.Data(rep.copy)) == rep.sum {
			d := m.memory.CopyPage(p, rep.copy) // full-page store re-establishes ECC
			if lane != nil {
				lane.Charge(d)
			}
			m.flushPage(lane, p)
			m.checksumPage(lane, p)
			m.Stats.ReplicaRepair++
			return true
		}
	}
	return false
}

// recordSum digests one backup object record: a canonical FNV-1a encoding
// of every snapshot field, with object references reduced to their stable
// IDs. It guards the backup tree's *records* the way page checksums guard
// its pages — a restore only trusts a record whose digest matches the one
// stored at its snapshot (ORoot.Sum).
func recordSum(snap caps.Snapshot) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w8 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wRoot := func(r *caps.ORoot) {
		if r == nil {
			w8(^uint64(0))
			return
		}
		w8(r.ObjID)
	}
	w8(uint64(snap.SnapKind()))
	switch s := snap.(type) {
	case *caps.CapGroupSnap:
		w8(uint64(len(s.Name)))
		h.Write([]byte(s.Name))
		w8(uint64(len(s.Slots)))
		for _, bc := range s.Slots {
			wRoot(bc.Root)
			w8(uint64(bc.Rights))
		}
	case *caps.ThreadSnap:
		w8(s.Ctx.PC)
		w8(s.Ctx.SP)
		for _, r := range s.Ctx.R {
			w8(r)
		}
		w8(uint64(int64(s.Sched.Priority)))
		w8(uint64(int64(s.Sched.Affinity)))
		w8(uint64(s.Sched.TimeSlice))
		w8(uint64(s.State))
	case *caps.VMSpaceSnap:
		w8(uint64(len(s.Regions)))
		for i := range s.Regions {
			r := &s.Regions[i]
			w8(r.VABase)
			w8(r.NumPages)
			wRoot(r.PMORoot)
			w8(r.PMOOffset)
			w8(uint64(r.Perm))
		}
	case *caps.IPCConnSnap:
		wRoot(s.ClientRoot)
		wRoot(s.ServerRoot)
		w8(uint64(len(s.Buf)))
		h.Write(s.Buf)
		w8(s.Seq)
	case *caps.NotificationSnap:
		w8(uint64(int64(s.Count)))
		w8(uint64(len(s.Waiters)))
		for _, wt := range s.Waiters {
			wRoot(wt)
		}
	case *caps.IRQNotificationSnap:
		w8(uint64(int64(s.Line)))
		w8(uint64(s.Pending))
		wRoot(s.HandlerRoot)
	}
	return h.Sum64()
}
