// Relaxed-persistency (ADR) support.
//
// The seed simulator modeled an eADR platform: every store to NVM was durable
// the instant it landed, so Crash() could never lose an in-flight write. Real
// ADR machines only guarantee that data which has been written back from the
// CPU caches (clwb) *and* drained past a store fence (sfence) survives power
// loss; everything else sits in volatile cache lines that the platform cannot
// save. This file adds that weaker model behind Config.Persist:
//
//   - Every store to an NVM frame is tracked at 64-byte cache-line
//     granularity in a write buffer. When a line is first dirtied, its
//     current durable content is captured as a shadow. A 4 KiB frame has
//     64 lines, so the buffer keeps one bit per line in a per-frame mask.
//   - Flush marks lines as written back; Fence makes flushed lines durable
//     (drops them from the buffer). Both charge the simclock cost model.
//   - Crash() consults a seeded deterministic RNG for every line still in
//     the buffer: the line either fully persisted, is dropped (reverts to
//     its shadow), or is torn — each aligned 8-byte word independently
//     keeps the new value or reverts. 8-byte aligned stores are atomic on
//     the memory bus, so a single word can be lost but never shredded.
//   - PersistAtomic models the ntstore+sfence idiom used for publishing
//     pointers/flags: the store is durable immediately and updates the
//     shadows of any buffered lines it overlaps, so a later drop of the
//     line preserves the atomically-published word.
//
// In ModeEADR every primitive below is a free no-op (zero cost, no
// tracking), keeping the seed's experiment outputs bit-identical.
//
// The file also hosts the event-granular crash injector: every NVM
// persistence event (tracked write, flush, fence, or an explicit
// CrashPoint) bumps a counter, and ArmCrashAfter(n) makes the n-th future
// event panic with CrashError. The crash-fuzz harness sweeps that counter
// to explore every ordering window in the persistence protocol.
package mem

import (
	"fmt"
	"math/bits"
	"slices"

	"treesls/internal/simclock"
)

// PersistMode selects how NVM stores become durable.
type PersistMode uint8

const (
	// ModeEADR (the default): the platform flushes the whole cache
	// hierarchy on power failure, so every landed store is durable.
	ModeEADR PersistMode = iota
	// ModeADR: only flushed-and-fenced lines are durable; Crash() may
	// drop or tear anything still in the write buffer.
	ModeADR
)

// String names the mode for flags and reports.
func (pm PersistMode) String() string {
	if pm == ModeADR {
		return "adr"
	}
	return "eadr"
}

// ParsePersistMode parses "eadr" or "adr" (as accepted by CLI flags).
func ParsePersistMode(s string) (PersistMode, error) {
	switch s {
	case "eadr", "":
		return ModeEADR, nil
	case "adr":
		return ModeADR, nil
	default:
		return ModeEADR, fmt.Errorf("mem: unknown persist mode %q (want eadr or adr)", s)
	}
}

// LineSize is the persistence granularity of the write buffer (one CPU
// cache line). WordSize is the store atomicity unit: an aligned 8-byte
// store can be lost whole but never torn internally.
const (
	LineSize = 64
	WordSize = 8
)

// Reserved NVM meta-frame layout. These frames sit inside the allocator's
// reserved metadata area (frames [0, alloc.ReservedMetaFrames)) and are
// never handed out by the buddy system.
const (
	// CommitMetaFrame holds the checkpoint manager's committed-version
	// word at offset 0 — the 8-byte atom whose persistence *is* the
	// checkpoint commit point.
	CommitMetaFrame = 0
	// JournalMetaFrame holds the redo/undo journal: an 8-byte pending
	// flag at offset 0 and the serialized in-flight record at offset 64
	// (its own cache line, so flag and body never share a tear domain).
	JournalMetaFrame = 1
)

// CrashError is the panic value raised when an armed crash countdown
// expires at an NVM persistence event. The kernel's crash-injection
// harness recovers it and turns it into a power failure.
type CrashError struct {
	// Event is the 1-based index of the persistence event at which the
	// simulated power failed.
	Event uint64
}

func (e CrashError) Error() string {
	return fmt.Sprintf("mem: injected power failure at persistence event %d", e.Event)
}

// lineKey names one NVM cache line (the key of the media poison map).
type lineKey struct {
	frame uint32
	line  uint16 // line index within the frame: off / LineSize
}

// wbFrame is the write-buffer state of one NVM frame that has unfenced
// lines; frame.wb indexes it in Memory.wbf. Bit l of dirty marks line l as
// buffered; bit l of flushed marks a buffered line whose clwb has been
// issued but not yet drained by a fence (flushed is a subset of dirty).
// shadow holds one entry per dirty bit, in ascending line order: the line's
// durable content from before it was first dirtied. Shadows are kept only
// for buffered lines, so a frame holding one runtime line costs 64 bytes
// of shadow, not 4 KiB. queued records that the frame is on the drain list.
type wbFrame struct {
	frame   uint32
	queued  bool
	dirty   uint64
	flushed uint64
	shadow  [][LineSize]byte
}

// lineMask returns the mask of the lines overlapping bytes [off, off+n),
// n > 0, clipped to the page.
func lineMask(off, n int) uint64 {
	hi := min((off+n-1)/LineSize, PageSize/LineSize-1)
	return ^uint64(0) >> (63 - hi) &^ (1<<(off/LineSize) - 1)
}

// shadowOf returns the shadow of line l, or nil when l is not buffered (or
// w is nil).
func (w *wbFrame) shadowOf(l int) *[LineSize]byte {
	if w == nil || w.dirty>>l&1 == 0 {
		return nil
	}
	return &w.shadow[bits.OnesCount64(w.dirty&(1<<l-1))]
}

// addShadows buffers the lines in add, none of them dirty yet, capturing
// their current content from d as shadows. It merges from the top down
// inside the grown slice, so shadows below the lowest new line stay put.
func (w *wbFrame) addShadows(d *[PageSize]byte, add uint64) {
	all := w.dirty | add
	i := len(w.shadow) - 1         // last old entry not yet placed
	j := bits.OnesCount64(all) - 1 // slot being filled
	w.shadow = slices.Grow(w.shadow, j-i)[:j+1]
	for ; j > i; j-- {
		l := 63 - bits.LeadingZeros64(all)
		all &^= 1 << l
		if add>>l&1 != 0 {
			w.shadow[j] = [LineSize]byte(d[l*LineSize : (l+1)*LineSize])
		} else {
			w.shadow[j] = w.shadow[i]
			i--
		}
	}
	w.dirty |= add
}

// retire drops the lines in ret, a subset of dirty, and their shadows.
func (w *wbFrame) retire(ret uint64) {
	j := 0
	for i, b := 0, w.dirty; b != 0; i, b = i+1, b&(b-1) {
		if ret&b&-b == 0 {
			w.shadow[j] = w.shadow[i]
			j++
		}
	}
	w.shadow = w.shadow[:j]
	w.dirty &^= ret
}

// wbOf returns the write-buffer state of NVM frame f, or nil when none of
// its lines is buffered. It never materializes the frame: which frames are
// materialized decides where crash-time media faults land.
func (m *Memory) wbOf(f uint32) *wbFrame {
	if int(f) >= len(m.nvm.frames) {
		return nil
	}
	if fr := m.nvm.frames[f]; fr != nil && fr.wb != 0 {
		return &m.wbf[fr.wb-1]
	}
	return nil
}

// releaseWB drops the write-buffer state of frame fr once it has no
// buffered line, moving the last entry of wbf into its slot.
func (m *Memory) releaseWB(fr *frame) {
	i, last := fr.wb-1, len(m.wbf)-1
	if int(i) != last {
		m.wbf[i] = m.wbf[last]
		m.nvm.frames[m.wbf[i].frame].wb = i + 1
	}
	m.wbf[last] = wbFrame{}
	m.wbf = m.wbf[:last]
	fr.wb = 0
}

// Mode returns the configured persistence model.
func (m *Memory) Mode() PersistMode { return m.mode }

// UnflushedLines reports how many NVM lines are currently at risk: every
// line still in the write buffer, dirty or flushed-but-unfenced (a flush
// alone makes nothing durable). Always 0 under eADR. The count is kept up
// to date by every buffer operation, so reading it walks nothing.
func (m *Memory) UnflushedLines() int { return m.wbLines }

// track records that bytes [off, off+n) of page p are being overwritten,
// capturing pre-write shadows for newly dirtied lines. Must be called
// BEFORE the store mutates the frame. No-op for DRAM and under eADR.
func (m *Memory) track(p PageID, off, n int) {
	if m.mode != ModeADR || p.Kind != KindNVM || n <= 0 {
		return
	}
	fr := m.nvm.frame(p.Frame)
	if fr.wb == 0 {
		m.wbf = append(m.wbf, wbFrame{frame: p.Frame})
		fr.wb = int32(len(m.wbf))
	}
	w := &m.wbf[fr.wb-1]
	mask := lineMask(off, n)
	// Re-dirtying a flushed-but-unfenced line makes it volatile again;
	// its shadow (last durable content) is unchanged because nothing was
	// fenced since.
	w.flushed &^= mask
	if add := mask &^ w.dirty; add != 0 {
		w.addShadows(fr.data, add)
		m.wbLines += bits.OnesCount64(add)
	}
}

// crashEvent counts one NVM persistence event and fires the armed crash,
// if any. Call sites place it so the event's own effect has already been
// applied (store landed in cache, flush marked) except for Fence, which
// fires the event before durable-izing — a fence that never retires
// persists nothing.
func (m *Memory) crashEvent() {
	m.events++
	if !m.crashArmed {
		return
	}
	m.crashCountdown--
	if m.crashCountdown == 0 {
		m.crashArmed = false
		panic(CrashError{Event: m.events})
	}
}

// CrashPoint fires one persistence event without touching any data. The
// allocator's op-log append uses it to expose the window between a
// metadata mutation and its journal commit.
func (m *Memory) CrashPoint() { m.crashEvent() }

// ArmCrashAfter arms the injector: the n-th persistence event from now
// (n >= 1) panics with CrashError. Arming with n == 0 disarms.
func (m *Memory) ArmCrashAfter(n uint64) {
	m.crashArmed = n > 0
	m.crashCountdown = n
}

// DisarmCrash cancels a pending armed crash.
func (m *Memory) DisarmCrash() { m.crashArmed = false }

// Events returns the total number of persistence events so far (used by
// the fuzz harness to size its crash sweeps).
func (m *Memory) Events() uint64 { return m.events }

// Flush issues cache-line write-backs (clwb) for bytes [off, off+n) of
// page p and returns the simulated cost. Under eADR, for DRAM pages, and
// for the nil page it is a free no-op: flushing nothing is legal (callers
// flush whatever slot a checkpoint source happens to live in, which may
// be DRAM or absent).
func (m *Memory) Flush(p PageID, off, n int) simclock.Duration {
	if m.mode != ModeADR || p.Kind != KindNVM || n <= 0 {
		return 0
	}
	lines := simclock.Duration(0)
	if w := m.wbOf(p.Frame); w != nil {
		if newly := lineMask(off, n) & w.dirty &^ w.flushed; newly != 0 {
			w.flushed |= newly
			if !w.queued {
				w.queued = true
				m.drain = append(m.drain, p.Frame)
			}
			lines = simclock.Duration(bits.OnesCount64(newly))
		}
	}
	m.Stats.Flushes++
	m.crashEvent()
	if lines == 0 {
		// clwb of clean lines still executes (and is common: callers
		// flush conservatively); charge one line's issue cost.
		lines = 1
	}
	return lines * m.model.CLWBLine
}

// FlushPage write-backs the whole page.
func (m *Memory) FlushPage(p PageID) simclock.Duration { return m.Flush(p, 0, PageSize) }

// Fence drains all flushed lines to durability (sfence) and returns the
// simulated cost. Free no-op under eADR. Only the frames Flush queued since
// the last fence are visited, each once, and each retires its flushed lines
// with one mask operation, so the host cost is O(frames flushed), not
// O(write buffer). A line re-dirtied after its flush is no longer flushed
// and stays in the buffer.
func (m *Memory) Fence() simclock.Duration {
	if m.mode != ModeADR {
		return 0
	}
	m.Stats.Fences++
	// The crash event fires before the drain: a power failure at the
	// fence persists nothing that the fence was about to retire.
	m.crashEvent()
	for _, f := range m.drain {
		fr := m.nvm.frames[f]
		w := &m.wbf[fr.wb-1]
		m.wbLines -= bits.OnesCount64(w.flushed)
		if w.flushed == w.dirty {
			m.releaseWB(fr)
			continue
		}
		w.retire(w.flushed)
		w.flushed, w.queued = 0, false
	}
	m.drain = m.drain[:0]
	return m.model.SFence
}

// WriteRaw stores data into page p without charging access costs or
// bumping traffic stats — the persistence-protocol primitive used for
// journal records and metadata words, whose costs are charged explicitly
// (JournalRecord, CLWBLine, SFence). The store is tracked like any other
// under ADR and fires one persistence event for NVM pages.
func (m *Memory) WriteRaw(p PageID, off int, data []byte) {
	if off < 0 || off+len(data) > PageSize {
		panic(fmt.Sprintf("mem: WriteRaw out of page bounds: off=%d len=%d", off, len(data)))
	}
	fr := m.frame(p)
	m.preWrite(p, off, len(data))
	m.track(p, off, len(data))
	copy(fr.data[off:], data)
	fr.touch()
	if p.Kind == KindNVM {
		m.crashEvent()
	}
}

// ReadRaw loads bytes without charging costs (recovery-path reads of
// metadata words; recovery time is charged at object granularity).
func (m *Memory) ReadRaw(p PageID, off int, buf []byte) {
	if off < 0 || off+len(buf) > PageSize {
		panic(fmt.Sprintf("mem: ReadRaw out of page bounds: off=%d len=%d", off, len(buf)))
	}
	copy(buf, m.Data(p)[off:])
}

// ZeroPage clears page p, tracking the stores under ADR. Replaces the
// bare clear(Data(p)) idiom so first-touch page materialization
// participates in the persistence model.
func (m *Memory) ZeroPage(p PageID) {
	fr := m.frame(p)
	m.preWrite(p, 0, PageSize)
	m.track(p, 0, PageSize)
	clear(fr.data[:])
	fr.touch()
	if p.Kind == KindNVM {
		m.crashEvent()
	}
}

// PersistAtomic stores data and makes it durable in one indivisible step,
// modeling the ntstore+sfence publish idiom (and, for spans larger than
// one word, the simulation's stand-in for "metadata structs persist
// atomically": the Go-level mutation they mirror is inherently atomic in
// the simulator, so giving the mirror bytes a crash window would create
// inconsistencies no real execution could exhibit). It fires no crash
// event, updates the shadows of any buffered lines it overlaps, and
// returns the CLWB+SFence cost (zero under eADR).
func (m *Memory) PersistAtomic(p PageID, off int, data []byte) simclock.Duration {
	if off < 0 || off+len(data) > PageSize {
		panic(fmt.Sprintf("mem: PersistAtomic out of page bounds: off=%d len=%d", off, len(data)))
	}
	m.preWrite(p, off, len(data))
	fr := m.frame(p)
	d := fr.data[:]
	copy(d[off:], data)
	fr.touch()
	if m.mode != ModeADR || p.Kind != KindNVM {
		return 0
	}
	// The published bytes are durable: fold them into the shadows of any
	// lines still in the write buffer so a later drop keeps them.
	w := m.wbOf(p.Frame)
	for l := off / LineSize; l <= (off+len(data)-1)/LineSize; l++ {
		sh := w.shadowOf(l)
		if sh == nil {
			continue
		}
		lo := l * LineSize
		hi := lo + LineSize
		s, e := max(off, lo), min(off+len(data), hi)
		copy(sh[s-lo:e-lo], d[s:e])
	}
	lines := simclock.Duration((len(data) + LineSize - 1) / LineSize)
	if lines == 0 {
		lines = 1
	}
	return lines*m.model.CLWBLine + m.model.SFence
}

// splitmix64 is the standard stateless mixer; the crash-damage RNG hashes
// (seed, crash ordinal, line identity) through it so damage is fully
// deterministic and independent of the order lines are visited in.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// applyCrashDamage resolves the write buffer at power failure: every
// still-buffered line either made it out of the cache in time, is dropped
// whole, or is torn word-by-word. Lines are disjoint, so application
// order cannot matter; the per-line hash keys on identity, not on the
// order frames entered the buffer.
func (m *Memory) applyCrashDamage() {
	for k := range m.wbf {
		w := &m.wbf[k]
		fr := m.nvm.frames[w.frame]
		for s, b := 0, w.dirty; b != 0; s, b = s+1, b&(b-1) {
			l := bits.TrailingZeros64(b)
			sh := &w.shadow[s]
			m.Stats.CrashLinesAtRisk++
			line := fr.data[l*LineSize : (l+1)*LineSize]
			h := splitmix64(m.crashSeed ^ splitmix64(uint64(m.crashes)<<48|uint64(w.frame)<<16|uint64(l)))
			switch {
			case h%100 < 25:
				// The line happened to be written back in time.
			case h%100 < 70:
				// Dropped: the cache line never reached the DIMM.
				copy(line, sh[:])
				fr.touch()
				m.Stats.CrashLinesDropped++
			default:
				// Torn: each aligned 8-byte word independently made it
				// or reverted (word stores are atomic on the bus).
				keep := splitmix64(h)
				for i := 0; i < LineSize/WordSize; i++ {
					if keep>>(uint(i))&1 == 0 {
						copy(line[i*WordSize:(i+1)*WordSize], sh[i*WordSize:(i+1)*WordSize])
					}
				}
				fr.touch()
				m.Stats.CrashLinesTorn++
			}
		}
		fr.wb = 0
	}
	clear(m.wbf)
	m.wbf = m.wbf[:0]
	m.wbLines = 0
	m.drain = m.drain[:0]
	m.crashes++
}
