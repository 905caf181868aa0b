package mem

import (
	"bytes"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"treesls/internal/simclock"
)

// refMem is a reference model of the NVM device under ADR whose write
// buffer keeps one map entry per cache line (shadow plus flushed flag) and
// a drain list of lines, the representation the per-frame masks replaced.
// It models NVM bytes, poison flags and Stats itself; DRAM content is read
// from the real Memory it runs beside.
type refMem struct {
	seed, crashes uint64
	media         MediaFaultConfig
	protect       uint32
	nvm           map[uint32]*[PageSize]byte
	wb            map[lineKey]*refLine
	drain         []lineKey
	poison        map[lineKey]struct{}
	st            Stats
}

type refLine struct {
	shadow  [LineSize]byte
	flushed bool
}

func newRefMem(seed uint64, media MediaFaultConfig, protect uint32) *refMem {
	return &refMem{seed: seed, media: media, protect: protect,
		nvm: map[uint32]*[PageSize]byte{}, wb: map[lineKey]*refLine{}, poison: map[lineKey]struct{}{}}
}

func (r *refMem) page(f uint32) *[PageSize]byte {
	if r.nvm[f] == nil {
		r.nvm[f] = new([PageSize]byte)
	}
	return r.nvm[f]
}

func (r *refMem) preWrite(f uint32, off, n int) {
	for l := (off + LineSize - 1) / LineSize; l < (off+n)/LineSize; l++ {
		if _, ok := r.poison[lineKey{f, uint16(l)}]; ok {
			delete(r.poison, lineKey{f, uint16(l)})
			r.st.PoisonClears++
		}
	}
}

func (r *refMem) store(f uint32, off int, data []byte) {
	r.preWrite(f, off, len(data))
	pg := r.page(f)
	for l := off / LineSize; l <= (off+len(data)-1)/LineSize; l++ {
		k := lineKey{f, uint16(l)}
		if rl := r.wb[k]; rl != nil {
			rl.flushed = false
			continue
		}
		r.wb[k] = &refLine{shadow: [LineSize]byte(pg[l*LineSize:])}
	}
	copy(pg[off:], data)
}

func (r *refMem) persistAtomic(f uint32, off int, data []byte) {
	r.preWrite(f, off, len(data))
	pg := r.page(f)
	copy(pg[off:], data)
	for l := off / LineSize; l <= (off+len(data)-1)/LineSize; l++ {
		if rl := r.wb[lineKey{f, uint16(l)}]; rl != nil {
			lo := l * LineSize
			s, e := max(off, lo), min(off+len(data), lo+LineSize)
			copy(rl.shadow[s-lo:e-lo], pg[s:e])
		}
	}
}

func (r *refMem) flush(f uint32, off, n int) {
	r.st.Flushes++
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		k := lineKey{f, uint16(l)}
		if rl := r.wb[k]; rl != nil && !rl.flushed {
			rl.flushed = true
			r.drain = append(r.drain, k)
		}
	}
}

func (r *refMem) fence() {
	r.st.Fences++
	for _, k := range r.drain {
		if rl := r.wb[k]; rl != nil && rl.flushed {
			delete(r.wb, k)
		}
	}
	r.drain = r.drain[:0]
}

func (r *refMem) scramble(k lineKey, h uint64) {
	var pat [LineSize]byte
	for i := 0; i < LineSize/WordSize; i++ {
		w := splitmix64(h+uint64(i)) | 1
		for b := 0; b < WordSize; b++ {
			pat[i*WordSize+b] = byte(w >> (8 * uint(b)))
		}
	}
	line := r.page(k.frame)[int(k.line)*LineSize:][:LineSize]
	rl := r.wb[k]
	for i := range pat {
		line[i] ^= pat[i]
		if rl != nil {
			rl.shadow[i] ^= pat[i]
		}
	}
}

func (r *refMem) poisonLine(k lineKey, h uint64) {
	r.scramble(k, h)
	if _, ok := r.poison[k]; !ok {
		r.poison[k] = struct{}{}
		r.st.PoisonedLines++
	}
}

func (r *refMem) crash() {
	for k, rl := range r.wb {
		r.st.CrashLinesAtRisk++
		line := r.nvm[k.frame][int(k.line)*LineSize:][:LineSize]
		h := splitmix64(r.seed ^ splitmix64(r.crashes<<48|uint64(k.frame)<<16|uint64(k.line)))
		switch {
		case h%100 < 25:
		case h%100 < 70:
			copy(line, rl.shadow[:])
			r.st.CrashLinesDropped++
		default:
			keep := splitmix64(h)
			for i := 0; i < LineSize/WordSize; i++ {
				if keep>>uint(i)&1 == 0 {
					copy(line[i*WordSize:(i+1)*WordSize], rl.shadow[i*WordSize:])
				}
			}
			r.st.CrashLinesTorn++
		}
	}
	clear(r.wb)
	r.drain = r.drain[:0]
	r.crashes++
	var frames []uint32
	for f := range r.nvm {
		if f >= r.protect {
			frames = append(frames, f)
		}
	}
	slices.Sort(frames)
	for i := 0; i < r.media.CrashFaults && len(frames) > 0; i++ {
		h := splitmix64(r.media.Seed ^ splitmix64(r.crashes<<24|uint64(i)+0x51ed2701))
		f := frames[h%uint64(len(frames))]
		r.poisonLine(lineKey{f, uint16((h >> 32) % (PageSize / LineSize))}, splitmix64(h))
	}
}

// TestWriteBufferMatchesPerLineReference drives a real ADR Memory and the
// per-line reference with the same seeded operation sequence. After every
// operation the number of buffered lines must agree; after every crash the
// set of materialized NVM frames, their bytes, the poison flags and every
// Stats field must agree.
func TestWriteBufferMatchesPerLineReference(t *testing.T) {
	const frames, protect = 12, 2
	var crashes, dropped, torn uint64
	for seed := uint64(1); seed <= 8; seed++ {
		var media MediaFaultConfig
		if seed%2 == 0 {
			media = MediaFaultConfig{CrashFaults: 2, Seed: seed}
		}
		m := New(Config{NVMFrames: frames, DRAMFrames: 1, Persist: ModeADR, CrashSeed: seed, Media: media},
			simclock.DefaultCostModel())
		m.SetProtectedFrames(protect)
		r := newRefMem(seed, media, protect)
		rng := rand.New(rand.NewPCG(seed, 15))
		dram := m.AllocDRAM()
		for step := 0; step < 1500; step++ {
			p := PageID{Kind: KindNVM, Frame: uint32(rng.IntN(frames))}
			off, n := 0, PageSize
			if rng.IntN(4) != 0 {
				off = rng.IntN(PageSize)
				n = 1 + rng.IntN(min(PageSize-off, 3*LineSize))
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			op := rng.IntN(24)
			switch {
			case op < 4:
				m.WriteAt(p, off, data)
				r.st.NVMPageWrites++
				r.store(p.Frame, off, data)
			case op < 6:
				m.WriteRaw(p, off, data)
				r.store(p.Frame, off, data)
			case op < 7:
				m.ZeroPage(p)
				r.store(p.Frame, 0, make([]byte, PageSize))
			case op < 8:
				m.WriteAt(dram, 0, bytes.Repeat(data[:1], PageSize))
				m.CopyPage(p, dram)
				r.st.DRAMPageWrites++
				r.st.DRAMPageReads++
				r.st.NVMPageWrites++
				r.store(p.Frame, 0, m.Data(dram))
			case op < 9:
				src := PageID{Kind: KindNVM, Frame: uint32(rng.IntN(frames))}
				m.CopyPage(p, src)
				r.st.NVMPageReads++
				r.st.NVMPageWrites++
				r.store(p.Frame, 0, bytes.Clone(r.page(src.Frame)[:]))
			case op < 11:
				m.PersistAtomic(p, off, data[:min(n, 2*WordSize)])
				r.persistAtomic(p.Frame, off, data[:min(n, 2*WordSize)])
			case op < 15:
				m.Flush(p, off, n)
				r.flush(p.Frame, off, n)
			case op < 17:
				m.FlushPage(p)
				r.flush(p.Frame, 0, PageSize)
			case op < 20:
				m.Fence()
				r.fence()
			case op < 21:
				m.InjectRot(p, off, n, uint64(step))
				for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
					r.scramble(lineKey{p.Frame, uint16(l)}, splitmix64(uint64(step)^uint64(l)))
					r.st.RottedLines++
				}
			case op < 22:
				m.InjectPoison(p, off, n, uint64(step))
				for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
					r.poisonLine(lineKey{p.Frame, uint16(l)}, splitmix64(uint64(step)^uint64(l)))
				}
			default:
				m.Crash()
				r.crash()
				crashes++
				for f := uint32(0); f < frames; f++ {
					fr := m.nvm.frames[f]
					if (fr != nil) != (r.nvm[f] != nil) {
						t.Fatalf("seed %d step %d: frame %d materialized %v, reference %v", seed, step, f, fr != nil, r.nvm[f] != nil)
					}
					if fr != nil && *fr.data != *r.nvm[f] {
						t.Fatalf("seed %d step %d: frame %d bytes differ from the reference after the crash", seed, step, f)
					}
				}
				if m.Stats != r.st {
					t.Fatalf("seed %d step %d: stats\n got %+v\nwant %+v", seed, step, m.Stats, r.st)
				}
				if !maps.Equal(m.poison, r.poison) {
					t.Fatalf("seed %d step %d: %d poisoned lines, reference %d", seed, step, len(m.poison), len(r.poison))
				}
			}
			if got, want := m.UnflushedLines(), len(r.wb); got != want {
				t.Fatalf("seed %d step %d (op %d): UnflushedLines = %d, reference %d", seed, step, op, got, want)
			}
		}
		dropped += m.Stats.CrashLinesDropped
		torn += m.Stats.CrashLinesTorn
	}
	if crashes < 8 || dropped == 0 || torn == 0 {
		t.Fatalf("sequences too tame: %d crashes, %d lines dropped, %d torn", crashes, dropped, torn)
	}
}

// TestCrashDamageIndependentOfOrder: two memories buffer the same lines
// with the same shadows and the same new content, but touch frames and
// lines in opposite orders, so their write-buffer entries sit in different
// slots and their shadows were merged in different orders. Crashed with
// the same seed they must end with identical bytes and damage counts.
func TestCrashDamageIndependentOfOrder(t *testing.T) {
	type lineRef struct {
		f uint32
		l int
	}
	var order []lineRef
	for f := uint32(3); f < 11; f++ {
		for l := 0; l < PageSize/LineSize; l += 1 + int(f)%4 {
			order = append(order, lineRef{f, l})
		}
	}
	run := func(order []lineRef) *Memory {
		m := newADRMemory(42)
		for f := uint32(3); f < 11; f++ {
			p := PageID{Kind: KindNVM, Frame: f}
			m.WriteAt(p, 0, bytes.Repeat([]byte{byte(f)}, PageSize))
			m.FlushPage(p)
		}
		m.Fence()
		for _, x := range order {
			m.WriteAt(PageID{Kind: KindNVM, Frame: x.f}, x.l*LineSize, bytes.Repeat([]byte{0x80 | byte(x.l)}, LineSize))
		}
		// Retiring one frame moves another entry into its slot.
		m.FlushPage(PageID{Kind: KindNVM, Frame: 5})
		m.Fence()
		return m
	}
	a := run(order)
	rev := slices.Clone(order)
	slices.Reverse(rev)
	b := run(rev)
	if a.wbf[0].frame == b.wbf[0].frame {
		t.Fatalf("both orders left frame %d in slot 0; the test needs different layouts", a.wbf[0].frame)
	}
	a.Crash()
	b.Crash()
	for f := uint32(3); f < 11; f++ {
		p := PageID{Kind: KindNVM, Frame: f}
		if !bytes.Equal(a.Data(p), b.Data(p)) {
			t.Errorf("frame %d differs between the two orders after the crash", f)
		}
	}
	if a.Stats.CrashLinesAtRisk != b.Stats.CrashLinesAtRisk || a.Stats.CrashLinesDropped != b.Stats.CrashLinesDropped ||
		a.Stats.CrashLinesTorn != b.Stats.CrashLinesTorn {
		t.Errorf("damage counts differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.CrashLinesDropped == 0 || a.Stats.CrashLinesTorn == 0 {
		t.Errorf("no dropped or torn lines: %+v", a.Stats)
	}
}
