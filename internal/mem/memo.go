package mem

// Host-side memoization. Every materialized frame carries a write generation
// and a memoized FNV-1a-64 content sum (see frame in mem.go). Both live on
// the host clock only: no simulated cost depends on them, so they can make
// the simulator faster without moving a single simulated nanosecond.
//
// Code that *establishes* a sum reads the memo: the checkpoint manager's
// checksumPage and replica refresh, replication capture, and the auditor's
// two-level state digests, which fold each page's Sum instead of its bytes.
// The memo cannot hide rot from them because every byte mutator —
// InjectRot, InjectPoison and ADR crash damage included — bumps the
// generation, and the auditor checks every memo against a fresh hash
// (StaleSums, its invariant 7) before it computes the digests. Code that
// *verifies* bytes — restore's source check and the scrubber — hashes the
// bytes afresh, so a media fault is caught exactly as before. See DESIGN.md,
// "Host-side memoization".

// FNV-1a-64 parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// PageSum returns the FNV-1a-64 hash of b — the same value as hash/fnv's
// New64a over b. It is the one page-content hash: the memoized frame sums,
// the checkpoint manager's replica and commit check words, and the
// auditor's page leaves all use it.
func PageSum(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// Gen returns the write generation of page p: a per-frame counter bumped by
// every primitive that mutates the frame's bytes. Equal generations of the
// same page of the same Memory mean equal bytes; a fresh frame reads 0.
func (m *Memory) Gen(p PageID) uint64 { return m.frame(p).gen }

// Sum returns the FNV-1a-64 hash of page p's bytes, hashing them only if
// they changed since the last Sum (or were copied from a frame whose sum was
// known). Verification paths must not use it: they hash Data afresh.
func (m *Memory) Sum(p PageID) uint64 {
	fr := m.frame(p)
	if !fr.sumOK {
		fr.sum, fr.sumOK = PageSum(fr.data[:]), true
	}
	return fr.sum
}

// StaleSums returns every page whose memoized sum disagrees with a fresh
// hash of its bytes — the auditor's check that no store bypassed the
// generation bump. A clean machine returns nil.
func (m *Memory) StaleSums() []PageID {
	var bad []PageID
	for _, d := range [...]*Device{m.nvm, m.dram} {
		for f, fr := range d.frames {
			if fr != nil && fr.sumOK && fr.sum != PageSum(fr.data[:]) {
				bad = append(bad, PageID{Kind: d.kind, Frame: uint32(f)})
			}
		}
	}
	return bad
}
