package mem

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"
)

// memoCase is one mutation primitive applied to a page whose sum is
// memoized beforehand.
type memoCase struct {
	name   string
	page   PageID
	setup  func(m *Memory, p PageID) // optional, before the sum is memoized
	mutate func(m *Memory, p PageID)
}

func memoCases() []memoCase {
	nvm := PageID{Kind: KindNVM, Frame: 9}
	dram := PageID{Kind: KindDRAM, Frame: 3}
	return []memoCase{
		{"WriteAt", nvm, nil, func(m *Memory, p PageID) { m.WriteAt(p, 10, []byte("x")) }},
		{"WriteRaw", nvm, nil, func(m *Memory, p PageID) { m.WriteRaw(p, 100, []byte("y")) }},
		{"ZeroPage", nvm, nil, func(m *Memory, p PageID) { m.ZeroPage(p) }},
		{"PersistAtomic", nvm, nil, func(m *Memory, p PageID) { m.PersistAtomic(p, 8, []byte("12345678")) }},
		{"CopyPage", nvm, nil, func(m *Memory, p PageID) {
			src := PageID{Kind: KindNVM, Frame: 10}
			m.WriteRaw(src, 0, []byte("other"))
			m.CopyPage(p, src)
		}},
		{"InjectRot", nvm, nil, func(m *Memory, p PageID) { m.InjectRot(p, 0, 1, 5) }},
		{"InjectPoison", nvm, nil, func(m *Memory, p PageID) { m.InjectPoison(p, 64, 1, 5) }},
		{"ADRCrashDrop", nvm, func(m *Memory, p PageID) {
			// One dirty, unflushed line when the sum is taken; damage
			// seed 1 drops it at the crash.
			m.crashSeed = 1
			m.WriteRaw(p, 0, bytes.Repeat([]byte{0xEE}, LineSize))
		}, func(m *Memory, p PageID) {
			if m.Crash(); m.Stats.CrashLinesDropped != 1 {
				panic("damage seed 1 no longer drops the line")
			}
		}},
		{"ADRCrashTear", nvm, func(m *Memory, p PageID) {
			m.crashSeed = 14 // tears the line
			m.WriteRaw(p, 0, bytes.Repeat([]byte{0xEE}, LineSize))
		}, func(m *Memory, p PageID) {
			if m.Crash(); m.Stats.CrashLinesTorn != 1 {
				panic("damage seed 14 no longer tears the line")
			}
		}},
		{"CrashDRAMWipe", dram, nil, func(m *Memory, p PageID) { m.Crash() }},
		{"AllocDRAMClear", dram, nil, func(m *Memory, p PageID) {
			m.FreeDRAM(p)
			if m.AllocDRAM() != p { // LIFO: the same frame comes back
				panic("AllocDRAM did not return the freed frame")
			}
		}},
	}
}

// TestEveryMutationBumpsGenAndInvalidatesSum: each store primitive must
// bump the frame's generation and drop its memoized sum, so the next Sum
// re-hashes the new bytes.
func TestEveryMutationBumpsGenAndInvalidatesSum(t *testing.T) {
	for _, tc := range memoCases() {
		t.Run(tc.name, func(t *testing.T) {
			m := newADRMemory(3)
			p := tc.page
			if p.Kind == KindDRAM {
				for m.AllocDRAM() != p {
				}
			}
			m.WriteRaw(p, 0, bytes.Repeat([]byte{0xA5}, PageSize))
			m.FlushPage(p)
			m.Fence()
			if tc.setup != nil {
				tc.setup(m, p)
			}
			m.Sum(p)
			gen := m.Gen(p)
			if !m.frame(p).sumOK {
				t.Fatal("Sum did not memoize")
			}
			tc.mutate(m, p)
			if m.Gen(p) <= gen {
				t.Errorf("generation %d -> %d: not bumped", gen, m.Gen(p))
			}
			if m.frame(p).sumOK {
				t.Error("memoized sum survived the mutation")
			}
			if got, want := m.Sum(p), PageSum(m.Data(p)); got != want {
				t.Errorf("Sum = %#x after mutation, fresh hash %#x", got, want)
			}
			if bad := m.StaleSums(); len(bad) != 0 {
				t.Errorf("stale memoized sums: %v", bad)
			}
		})
	}
}

// TestCopyPagePassesSumOn: a copy carries the source's memo when it has
// one and carries none otherwise.
func TestCopyPagePassesSumOn(t *testing.T) {
	m := newTestMemory()
	src, dst := PageID{Kind: KindNVM, Frame: 1}, PageID{Kind: KindDRAM, Frame: 2}
	m.WriteRaw(src, 0, []byte("payload"))
	m.CopyPage(dst, src)
	if m.frame(dst).sumOK {
		t.Fatal("copy of an un-summed source claims a memoized sum")
	}
	want := m.Sum(src)
	m.CopyPage(dst, src)
	if fr := m.frame(dst); !fr.sumOK || fr.sum != want {
		t.Fatalf("copy did not carry the source's sum: ok=%v %#x want %#x", fr.sumOK, fr.sum, want)
	}
	if got := PageSum(m.Data(dst)); got != want {
		t.Fatalf("carried sum %#x != fresh hash of the copy %#x", want, got)
	}
}

// TestChecksumIsFNV1a64: the memoized sum is hash/fnv's FNV-1a-64.
func TestChecksumIsFNV1a64(t *testing.T) {
	m := newTestMemory()
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, PageSize)
	for i := 0; i < 8; i++ {
		rng.Read(buf)
		p := PageID{Kind: KindNVM, Frame: uint32(i)}
		m.WriteRaw(p, 0, buf)
		h := fnv.New64a()
		h.Write(buf)
		if got, want := m.Sum(p), h.Sum64(); got != want {
			t.Fatalf("page %d: Sum %#x, hash/fnv %#x", i, got, want)
		}
	}
	if PageSum(nil) != fnv.New64a().Sum64() {
		t.Fatal("empty-input checksum differs from hash/fnv")
	}
}

// TestGenOfFreshFrame: a frame nobody wrote reads generation 0.
func TestGenOfFreshFrame(t *testing.T) {
	m := newTestMemory()
	if g := m.Gen(PageID{Kind: KindNVM, Frame: 77}); g != 0 {
		t.Fatalf("Gen = %d on an untouched frame", g)
	}
	expectPanic(t, "Gen(nil)", func() { m.Gen(NilPage) })
}

// TestStaleSumsCatchesBypass: a store that goes around the primitives (the
// one thing Data's read-only contract forbids) leaves a memo that no longer
// matches the bytes, and StaleSums names the page.
func TestStaleSumsCatchesBypass(t *testing.T) {
	m := newTestMemory()
	p := PageID{Kind: KindNVM, Frame: 4}
	m.WriteRaw(p, 0, []byte("honest"))
	m.Sum(p)
	m.Data(p)[0] ^= 0xFF // deliberate contract violation
	bad := m.StaleSums()
	if len(bad) != 1 || bad[0] != p {
		t.Fatalf("StaleSums = %v, want [%v]", bad, p)
	}
}
