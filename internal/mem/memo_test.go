package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// prepare builds a machine whose page tc.page holds fill, flushed and
// fenced, with tc's setup applied: ready for its sum to be memoized.
func (tc memoCase) prepare(fill []byte) *Memory {
	m := newADRMemory(3)
	if tc.page.Kind == KindDRAM {
		for m.AllocDRAM() != tc.page {
		}
	}
	m.WriteRaw(tc.page, 0, fill)
	m.FlushPage(tc.page)
	m.Fence()
	if tc.setup != nil {
		tc.setup(m, tc.page)
	}
	return m
}

// TestEveryMutationBumpsGenAndInvalidatesSum: each store primitive must
// bump the frame's generation and drop its memoized sum, so the next Sum
// re-hashes the new bytes.
func TestEveryMutationBumpsGenAndInvalidatesSum(t *testing.T) {
	for _, tc := range memoCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, p := tc.prepare(bytes.Repeat([]byte{0xA5}, PageSize)), tc.page
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

// seededPage returns a 4 KiB page of pseudo-random bytes drawn from seed.
func seededPage(seed int64) []byte {
	b := make([]byte, PageSize)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestPageSumWordChange: any change confined to one 8-byte word changes the
// sum (the property PageSum's doc comment argues), the length is part of
// the sum, and the memoized Sum always equals PageSum over the bytes.
func TestPageSumWordChange(t *testing.T) {
	t.Run("bit-flips", func(t *testing.T) {
		page := seededPage(1)
		want := PageSum(page)
		for bit := 0; bit < 8*PageSize; bit++ {
			page[bit/8] ^= 1 << (bit % 8)
			if PageSum(page) == want {
				t.Fatalf("flipping bit %d left the sum at %#x", bit, want)
			}
			page[bit/8] ^= 1 << (bit % 8)
		}
	})
	t.Run("scrambles", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		page := seededPage(3)
		want := PageSum(page)
		for i := 0; i < 4096; i++ {
			// Odd i: one whole 64-byte line; even i: one 8-byte word.
			size := 8
			if i%2 == 1 {
				size = LineSize
			}
			off := rng.Intn(PageSize/size) * size
			orig := append([]byte(nil), page[off:off+size]...)
			for bytes.Equal(page[off:off+size], orig) {
				rng.Read(page[off : off+size])
			}
			if PageSum(page) == want {
				t.Fatalf("scramble %d of %d bytes at %d left the sum at %#x", i, size, off, want)
			}
			copy(page[off:], orig)
		}
	})
	t.Run("lengths", func(t *testing.T) {
		// Zero-padding the tail word must not alias lengths, and every
		// bit of every short input counts (commitCheck hashes 8 bytes).
		buf := seededPage(4)[:40]
		seen := map[uint64]string{}
		for n := 0; n <= len(buf); n++ {
			for _, in := range []struct {
				name string
				b    []byte
			}{{"zeros", make([]byte, n)}, {"seeded", buf[:n]}} {
				sum := PageSum(in.b)
				if prev, dup := seen[sum]; dup && n > 0 { // both are empty at n == 0
					t.Fatalf("%d %s bytes and %s share the sum %#x", n, in.name, prev, sum)
				}
				seen[sum] = fmt.Sprintf("%d %s bytes", n, in.name)
				for bit := 0; bit < 8*n; bit++ {
					in.b[bit/8] ^= 1 << (bit % 8)
					if PageSum(in.b) == sum {
						t.Fatalf("%d %s bytes: flipping bit %d left the sum", n, in.name, bit)
					}
					in.b[bit/8] ^= 1 << (bit % 8)
				}
			}
		}
	})
	t.Run("memo", func(t *testing.T) {
		m := newTestMemory()
		for i := 0; i < 8; i++ {
			p := PageID{Kind: KindNVM, Frame: uint32(i)}
			m.WriteRaw(p, 0, seededPage(int64(i)))
			if got, want := m.Sum(p), PageSum(m.Data(p)); got != want {
				t.Fatalf("page %d: Sum %#x, PageSum %#x", i, got, want)
			}
		}
		// Every mutation primitive, CopyPage, rot and crash damage
		// included: the sum moves exactly when the bytes do.
		for _, tc := range memoCases() {
			m, p := tc.prepare(seededPage(5)), tc.page
			before, sum := append([]byte(nil), m.Data(p)...), m.Sum(p)
			tc.mutate(m, p)
			after := m.Sum(p)
			if want := PageSum(m.Data(p)); after != want {
				t.Errorf("%s: Sum %#x, PageSum %#x", tc.name, after, want)
			}
			if changed := !bytes.Equal(before, m.Data(p)); changed != (after != sum) {
				t.Errorf("%s: bytes changed %v, sum changed %v", tc.name, changed, after != sum)
			}
		}
	})
}

// FuzzPageSumWordChange: xoring a non-zero mask into any one word of any
// seeded page changes its sum.
func FuzzPageSumWordChange(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, word uint16, mask uint64) {
		if mask == 0 {
			t.Skip("a zero mask changes nothing")
		}
		page := seededPage(seed)
		want := PageSum(page)
		off := 8 * (int(word) % (PageSize / 8))
		binary.LittleEndian.PutUint64(page[off:], binary.LittleEndian.Uint64(page[off:])^mask)
		if PageSum(page) == want {
			t.Fatalf("mask %#x at word %d left the sum at %#x", mask, off/8, want)
		}
	})
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
