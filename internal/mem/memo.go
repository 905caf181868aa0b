package mem

import (
	"encoding/binary"
	"math/bits"
)

// Host-side memoization. Every materialized frame carries a write generation
// and a memoized PageSum of its bytes (see frame in mem.go). Both live on
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

// Word-hash parameters. Every multiplier is odd, so multiplying by it is a
// bijection of uint64; the lane seeds only need to differ.
const (
	sumMul  = 0x9E3779B97F4A7C15 // lane and fold step multiplier
	sumRot  = 29                 // lane and fold step rotation
	sumSeed = 0x2545F4914F6CDD1D // lane i starts at sumSeed + i*sumMul
	fmixM1  = 0xFF51AFD7ED558CCD // murmur3 fmix64 multipliers
	fmixM2  = 0xC4CEB9FE1A85EC53
)

// MixWord is the word step of every content hash: fold the 8-byte word v
// into state h by one xor, one rotate and one odd multiply. For a fixed h it
// is injective in v, and for a fixed v it is a bijection of h.
func MixWord(h, v uint64) uint64 {
	return bits.RotateLeft64(h^v, sumRot) * sumMul
}

// PageSum returns the 64-bit word hash of b. It is the one page-content
// hash: the memoized frame sums, the checkpoint manager's replica and commit
// check words, and the auditor's page leaves all use it.
//
// b is read as little-endian 8-byte words, the last one zero-padded. Word i
// enters lane i%4 by MixWord, so the four lanes' multiply chains overlap.
// The lanes are then folded in order into one state by MixWord, the length
// is folded in (so zero padding cannot alias a shorter input), and the
// result goes through murmur3's fmix64 finalizer.
//
// Any change confined to one 8-byte word of b always changes the sum. That
// word is the unit ADR tears at, and finer than the 64-byte line media rot
// damages. The argument, for two inputs of equal length that differ only in
// that word: the other three lanes end equal. The word's lane leaves its
// step in a different state, because MixWord is injective in the word, and
// each later step of that lane is a bijection of its state (the words it
// mixes are equal), so the lane ends different. The fold step that takes
// the lane is injective in it, and every fold step after it, the length
// fold and the finalizer (xorshifts and odd multiplies) are bijections of
// the state. Two distinct states therefore never meet again.
func PageSum(b []byte) uint64 {
	n := uint64(len(b))
	h0 := uint64(sumSeed)
	h1 := h0 + sumMul
	h2 := h1 + sumMul
	h3 := h2 + sumMul
	for ; len(b) >= 32; b = b[32:] {
		h0 = MixWord(h0, binary.LittleEndian.Uint64(b[0:8]))
		h1 = MixWord(h1, binary.LittleEndian.Uint64(b[8:16]))
		h2 = MixWord(h2, binary.LittleEndian.Uint64(b[16:24]))
		h3 = MixWord(h3, binary.LittleEndian.Uint64(b[24:32]))
	}
	// At most four words remain, the last possibly partial: they continue
	// lanes 0, 1, 2, 3 in turn.
	lanes := [4]uint64{h0, h1, h2, h3}
	for i := 0; len(b) > 0; i++ {
		var w [8]byte
		b = b[copy(w[:], b):]
		lanes[i] = MixWord(lanes[i], binary.LittleEndian.Uint64(w[:]))
	}
	h := MixWord(MixWord(MixWord(lanes[0], lanes[1]), lanes[2]), lanes[3])
	h = MixWord(h, n)
	h ^= h >> 33
	h *= fmixM1
	h ^= h >> 33
	h *= fmixM2
	h ^= h >> 33
	return h
}

// Gen returns the write generation of page p: a per-frame counter bumped by
// every primitive that mutates the frame's bytes. Equal generations of the
// same page of the same Memory mean equal bytes; a fresh frame reads 0.
func (m *Memory) Gen(p PageID) uint64 { return m.frame(p).gen }

// Sum returns PageSum of page p's bytes, hashing them only if they changed
// since the last Sum (or were copied from a frame whose sum was known).
// Verification paths must not use it: they hash Data afresh.
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
