// Package mem simulates the physical memory of the TreeSLS machine: a
// non-volatile memory (NVM) device whose contents survive power failures and
// a DRAM device that is wiped by them.
//
// The paper's machine has 256 GiB DRAM and 1 TiB Optane PM; here both devices
// are arrays of 4 KiB frames with lazily-allocated backing storage. The only
// properties the TreeSLS algorithms rely on are captured exactly:
//
//   - NVM frames keep their bytes across Crash().
//   - DRAM frames are zeroed by Crash().
//   - NVM accesses are slower than DRAM accesses (per the cost model).
//
// Frame allocation policy is split: NVM frames are owned by the buddy system
// in internal/alloc (whose metadata is itself crash-consistent); DRAM frames
// are owned by a simple free list here, because DRAM state is rebuilt from
// scratch after a failure and needs no crash consistency.
package mem

import (
	"fmt"

	"treesls/internal/simclock"
)

// PageSize is the size of one physical frame in bytes.
const PageSize = 4096

// Kind identifies which device a page lives on.
type Kind uint8

const (
	// KindNil marks the zero PageID (no page).
	KindNil Kind = iota
	// KindNVM is persistent memory: contents survive Crash().
	KindNVM
	// KindDRAM is volatile memory: contents are zeroed by Crash().
	KindDRAM
)

// String returns "nil", "NVM" or "DRAM".
func (k Kind) String() string {
	switch k {
	case KindNVM:
		return "NVM"
	case KindDRAM:
		return "DRAM"
	default:
		return "nil"
	}
}

// PageID names one physical frame. The zero value is the nil page.
type PageID struct {
	Kind  Kind
	Frame uint32
}

// NilPage is the absent page.
var NilPage = PageID{}

// IsNil reports whether p names no page.
func (p PageID) IsNil() bool { return p.Kind == KindNil }

// String formats a PageID for diagnostics, e.g. "NVM:42".
func (p PageID) String() string {
	if p.IsNil() {
		return "nil-page"
	}
	return fmt.Sprintf("%s:%d", p.Kind, p.Frame)
}

// Device is one physical memory device: a fixed number of frames with
// lazily-materialized backing bytes.
type Device struct {
	kind   Kind
	frames []*frame
}

// frame is one materialized 4 KiB frame. Beside the bytes it carries
// host-side fields that never influence simulated time: a write generation,
// bumped by every primitive that mutates the bytes, a memoized PageSum
// of the bytes, valid until the next mutation, and the slot of its ADR
// write-buffer state. The bytes are a separate allocation, and the slot an
// int32 in the header's padding, so the header stays in the 32-byte size
// class.
type frame struct {
	data  *[PageSize]byte
	gen   uint64
	sum   uint64
	sumOK bool
	wb    int32 // 1 + index of the frame's write-buffer state in Memory.wbf; 0 if none
}

// touch records a mutation of the frame's bytes.
func (fr *frame) touch() {
	fr.gen++
	fr.sumOK = false
}

func newDevice(kind Kind, nFrames int) *Device {
	return &Device{kind: kind, frames: make([]*frame, nFrames)}
}

// NumFrames returns the device capacity in frames.
func (d *Device) NumFrames() int { return len(d.frames) }

// frame returns frame f, materializing its bytes on demand.
func (d *Device) frame(f uint32) *frame {
	if int(f) >= len(d.frames) {
		panic(fmt.Sprintf("mem: frame %d out of range on %s device (%d frames)", f, d.kind, len(d.frames)))
	}
	fr := d.frames[f]
	if fr == nil {
		fr = &frame{data: new([PageSize]byte)}
		d.frames[f] = fr
	}
	return fr
}

// Memory bundles the two devices and the cost model. All page data access in
// the simulator goes through Memory so that device costs are charged
// uniformly.
type Memory struct {
	model *simclock.CostModel
	nvm   *Device
	dram  *Device

	dramFree []uint32 // free DRAM frames (LIFO)

	// Relaxed-persistency state (see persist.go). wbf is the write buffer
	// of unfenced NVM stores, one entry per frame with buffered lines; it
	// stays empty under eADR.
	mode      PersistMode
	crashSeed uint64
	crashes   uint64 // power failures so far (varies damage across crashes)
	wbf       []wbFrame
	wbLines   int      // buffered lines across wbf
	drain     []uint32 // frames with lines flushed since the last fence

	// Event-granular crash injection.
	events         uint64
	crashArmed     bool
	crashCountdown uint64

	// Media-fault state (see media.go): poisoned (uncorrectable) NVM
	// lines, the injector config, and the metadata region exempt from
	// random crash-time injection.
	media        MediaFaultConfig
	mediaProtect uint32
	poison       map[lineKey]struct{}

	// Stats counts device traffic for the experiment reports.
	Stats Stats
}

// Stats counts page-granularity device traffic plus the robustness
// counters of the relaxed-persistency model.
type Stats struct {
	NVMPageWrites  uint64
	NVMPageReads   uint64
	DRAMPageWrites uint64
	DRAMPageReads  uint64

	// ADR persistence-protocol traffic (always 0 under eADR).
	Flushes uint64
	Fences  uint64

	// Crash-damage accounting, cumulative across power failures: lines
	// still in the write buffer when power failed, and how many of
	// those were dropped whole or torn word-by-word.
	CrashLinesAtRisk  uint64
	CrashLinesDropped uint64
	CrashLinesTorn    uint64

	// Media-fault accounting (see media.go): lines poisoned (flagged
	// uncorrectable), lines silently rotted, machine-check reads of
	// poisoned spans, and poison flags cleared by full-line rewrites.
	PoisonedLines uint64
	RottedLines   uint64
	PoisonedReads uint64
	PoisonClears  uint64
}

// Config sizes the two devices and selects the persistence model.
type Config struct {
	NVMFrames  int
	DRAMFrames int

	// Persist selects eADR (default: every store durable on landing) or
	// ADR (only flushed+fenced lines survive Crash).
	Persist PersistMode
	// CrashSeed seeds the deterministic damage RNG used by Crash() in
	// ADR mode.
	CrashSeed uint64

	// Media configures the NVM media-fault injector (media.go). The zero
	// value injects nothing.
	Media MediaFaultConfig
}

// DefaultConfig returns a machine with 64 Ki NVM frames (256 MiB) and
// 16 Ki DRAM frames (64 MiB) — large enough for every experiment at the
// default scale while keeping test memory use modest.
func DefaultConfig() Config {
	return Config{NVMFrames: 64 * 1024, DRAMFrames: 16 * 1024}
}

// New creates the simulated physical memory.
func New(cfg Config, model *simclock.CostModel) *Memory {
	m := &Memory{
		model:     model,
		nvm:       newDevice(KindNVM, cfg.NVMFrames),
		dram:      newDevice(KindDRAM, cfg.DRAMFrames),
		mode:      cfg.Persist,
		crashSeed: cfg.CrashSeed,
		media:     cfg.Media,
	}
	m.resetDRAMFreeList()
	return m
}

func (m *Memory) resetDRAMFreeList() {
	m.dramFree = m.dramFree[:0]
	for f := m.dram.NumFrames() - 1; f >= 0; f-- {
		m.dramFree = append(m.dramFree, uint32(f))
	}
}

// Model returns the machine cost model.
func (m *Memory) Model() *simclock.CostModel { return m.model }

// NVMFrames returns the NVM device capacity (the buddy allocator manages
// exactly this range).
func (m *Memory) NVMFrames() int { return m.nvm.NumFrames() }

// frame returns the frame behind page p, materializing it on demand.
func (m *Memory) frame(p PageID) *frame {
	switch p.Kind {
	case KindNVM:
		return m.nvm.frame(p.Frame)
	case KindDRAM:
		return m.dram.frame(p.Frame)
	default:
		panic("mem: access to nil page")
	}
}

// Data returns the live backing bytes of page p. The slice is read-only:
// every store must go through a Memory primitive (WriteAt, WriteRaw,
// ZeroPage, PersistAtomic, CopyPage, InjectRot, ...) so that it is tracked
// by the persistence model and bumps the frame's write generation. Callers
// must charge access costs themselves (or use CopyPage / ReadAt / WriteAt
// which do).
func (m *Memory) Data(p PageID) []byte { return m.frame(p).data[:] }

// AllocDRAM takes one DRAM frame from the free list. It returns the nil page
// when DRAM is exhausted (callers fall back to keeping the page on NVM).
func (m *Memory) AllocDRAM() PageID {
	n := len(m.dramFree)
	if n == 0 {
		return NilPage
	}
	f := m.dramFree[n-1]
	m.dramFree = m.dramFree[:n-1]
	// A freshly allocated frame must read as zero even if a previous
	// owner left data in it.
	fr := m.dram.frame(f)
	clear(fr.data[:])
	fr.touch()
	return PageID{Kind: KindDRAM, Frame: f}
}

// FreeDRAM returns a DRAM frame to the free list.
func (m *Memory) FreeDRAM(p PageID) {
	if p.Kind != KindDRAM {
		panic("mem: FreeDRAM on " + p.String())
	}
	m.dramFree = append(m.dramFree, p.Frame)
}

// DRAMFreeFrames reports how many DRAM frames are currently free.
func (m *Memory) DRAMFreeFrames() int { return len(m.dramFree) }

// CopyPage copies one full page from src to dst and returns the simulated
// cost (read of src + write of dst).
func (m *Memory) CopyPage(dst, src PageID) simclock.Duration {
	m.preWrite(dst, 0, PageSize)
	m.track(dst, 0, PageSize)
	sf, df := m.frame(src), m.frame(dst)
	*df.data = *sf.data
	df.gen++
	df.sum, df.sumOK = sf.sum, sf.sumOK // same bytes, same sum
	if dst.Kind == KindNVM {
		m.crashEvent()
	}
	return m.readCost(src) + m.writeCost(dst)
}

// WriteAt writes data into page p at offset off and returns the simulated
// cost. Partial-page writes are charged per touched cacheline.
func (m *Memory) WriteAt(p PageID, off int, data []byte) simclock.Duration {
	fr := m.frame(p)
	if off < 0 || off+len(data) > PageSize {
		panic(fmt.Sprintf("mem: WriteAt out of page bounds: off=%d len=%d", off, len(data)))
	}
	m.preWrite(p, off, len(data))
	m.track(p, off, len(data))
	copy(fr.data[off:], data)
	fr.touch()
	if p.Kind == KindNVM {
		m.crashEvent()
	}
	return m.smallAccessCost(p, len(data), true)
}

// ReadAt reads len(buf) bytes from page p at offset off and returns the
// simulated cost.
func (m *Memory) ReadAt(p PageID, off int, buf []byte) simclock.Duration {
	d := m.Data(p)
	if off < 0 || off+len(buf) > PageSize {
		panic(fmt.Sprintf("mem: ReadAt out of page bounds: off=%d len=%d", off, len(buf)))
	}
	copy(buf, d[off:])
	return m.smallAccessCost(p, len(buf), false)
}

func (m *Memory) readCost(p PageID) simclock.Duration {
	switch p.Kind {
	case KindNVM:
		m.Stats.NVMPageReads++
		return m.model.NVMReadPage
	default:
		m.Stats.DRAMPageReads++
		return m.model.DRAMCopyPage / 2
	}
}

func (m *Memory) writeCost(p PageID) simclock.Duration {
	switch p.Kind {
	case KindNVM:
		m.Stats.NVMPageWrites++
		return m.model.NVMWritePage
	default:
		m.Stats.DRAMPageWrites++
		return m.model.DRAMCopyPage / 2
	}
}

func (m *Memory) smallAccessCost(p PageID, n int, write bool) simclock.Duration {
	lines := simclock.Duration((n + 63) / 64)
	if lines == 0 {
		lines = 1
	}
	var per simclock.Duration
	if p.Kind == KindNVM {
		per = m.model.NVMAccess
		if write {
			m.Stats.NVMPageWrites++
		} else {
			m.Stats.NVMPageReads++
		}
	} else {
		per = m.model.DRAMAccess
		if write {
			m.Stats.DRAMPageWrites++
		} else {
			m.Stats.DRAMPageReads++
		}
	}
	return lines * per
}

// Crash simulates a power failure at the device level: every DRAM frame is
// zeroed and the DRAM free list is reset (DRAM ownership state is volatile
// kernel state and is rebuilt during restore). Under eADR NVM frames are
// untouched; under ADR every line still in the write buffer is dropped or
// torn per the seeded damage RNG (see persist.go).
func (m *Memory) Crash() {
	m.DisarmCrash()
	if m.mode == ModeADR {
		m.applyCrashDamage()
	} else {
		m.crashes++ // vary media damage across crashes under eADR too
	}
	m.injectCrashFaults()
	for _, fr := range m.dram.frames {
		if fr != nil {
			clear(fr.data[:])
			fr.touch()
		}
	}
	m.resetDRAMFreeList()
}
