package mem

import (
	"bytes"
	"testing"

	"treesls/internal/simclock"
)

func newADRMemory(seed uint64) *Memory {
	return New(Config{NVMFrames: 128, DRAMFrames: 32, Persist: ModeADR, CrashSeed: seed},
		simclock.DefaultCostModel())
}

func TestParsePersistMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want PersistMode
		ok   bool
	}{
		{"", ModeEADR, true},
		{"eadr", ModeEADR, true},
		{"adr", ModeADR, true},
		{"eADR", ModeEADR, false},
		{"bogus", ModeEADR, false},
	} {
		got, err := ParsePersistMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePersistMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if ModeADR.String() != "adr" || ModeEADR.String() != "eadr" {
		t.Error("PersistMode.String mismatch")
	}
}

func TestFlushNilPageIsFreeNoop(t *testing.T) {
	m := newADRMemory(1)
	if cost := m.Flush(NilPage, 0, PageSize); cost != 0 {
		t.Errorf("flushing the nil page cost %v", cost)
	}
	if cost := m.FlushPage(PageID{Kind: KindDRAM, Frame: 0}); cost != 0 {
		t.Errorf("flushing a DRAM page cost %v", cost)
	}
	if cost := m.Flush(PageID{Kind: KindNVM, Frame: 1}, 0, 0); cost != 0 {
		t.Errorf("zero-length flush cost %v", cost)
	}
	if m.Stats.Flushes != 0 {
		t.Errorf("no-op flushes were counted: %d", m.Stats.Flushes)
	}
}

func TestDoubleFence(t *testing.T) {
	m := newADRMemory(1)
	p := PageID{Kind: KindNVM, Frame: 2}
	m.WriteAt(p, 0, []byte("payload"))
	m.FlushPage(p)
	if c1 := m.Fence(); c1 != m.model.SFence {
		t.Errorf("first fence cost %v", c1)
	}
	if n := m.UnflushedLines(); n != 0 {
		t.Fatalf("%d lines still buffered after fence", n)
	}
	// A second fence with nothing to drain still executes and costs the
	// same: sfence is not conditional on dirty state.
	if c2 := m.Fence(); c2 != m.model.SFence {
		t.Errorf("idle fence cost %v", c2)
	}
	if m.Stats.Fences != 2 {
		t.Errorf("Fences = %d, want 2", m.Stats.Fences)
	}
}

func TestCrashWithEmptyWriteBuffer(t *testing.T) {
	m := newADRMemory(7)
	p := PageID{Kind: KindNVM, Frame: 3}
	m.WriteAt(p, 0, []byte("durable"))
	m.FlushPage(p)
	m.Fence()
	m.Crash()
	if m.Stats.CrashLinesAtRisk != 0 || m.Stats.CrashLinesDropped != 0 || m.Stats.CrashLinesTorn != 0 {
		t.Fatalf("crash with empty buffer damaged lines: %+v", m.Stats)
	}
	buf := make([]byte, 7)
	m.ReadAt(p, 0, buf)
	if string(buf) != "durable" {
		t.Fatalf("fenced data lost: %q", buf)
	}
}

func TestDRAMWritesNeverTracked(t *testing.T) {
	m := newADRMemory(1)
	d := m.AllocDRAM()
	if d.IsNil() {
		t.Fatal("no DRAM")
	}
	m.WriteAt(d, 0, bytes.Repeat([]byte{0xAA}, PageSize))
	if n := m.UnflushedLines(); n != 0 {
		t.Fatalf("DRAM write entered the write buffer: %d lines", n)
	}
	ev := m.Events()
	m.WriteAt(d, 0, []byte{1})
	if m.Events() != ev {
		t.Fatal("DRAM write fired a persistence event")
	}
}

func TestFlushedFencedLinesSurviveCrash(t *testing.T) {
	m := newADRMemory(99)
	fenced := PageID{Kind: KindNVM, Frame: 4}
	naked := PageID{Kind: KindNVM, Frame: 5}
	pattern := bytes.Repeat([]byte{0x5A}, PageSize)
	m.WriteAt(fenced, 0, pattern)
	m.WriteAt(naked, 0, pattern)
	m.FlushPage(fenced)
	m.Fence()
	m.Crash()
	if !bytes.Equal(m.Data(fenced), pattern) {
		t.Fatal("flushed+fenced page damaged by crash")
	}
	// The unfenced page had PageSize/LineSize lines at risk; with the
	// damage distribution (45% dropped, 30% torn) 64 lines surviving
	// untouched is astronomically unlikely.
	if m.Stats.CrashLinesAtRisk != PageSize/LineSize {
		t.Fatalf("CrashLinesAtRisk = %d, want %d", m.Stats.CrashLinesAtRisk, PageSize/LineSize)
	}
	if bytes.Equal(m.Data(naked), pattern) {
		t.Fatal("unflushed page survived crash fully intact (damage model inert)")
	}
	if m.Stats.CrashLinesDropped+m.Stats.CrashLinesTorn == 0 {
		t.Fatal("no lines dropped or torn")
	}
}

func TestCrashDamageDeterministic(t *testing.T) {
	run := func() ([]byte, Stats) {
		m := newADRMemory(1234)
		p := PageID{Kind: KindNVM, Frame: 6}
		m.WriteAt(p, 0, bytes.Repeat([]byte{0x11}, PageSize))
		m.FlushPage(p)
		m.Fence()
		m.WriteAt(p, 0, bytes.Repeat([]byte{0x22}, PageSize))
		m.Crash()
		out := make([]byte, PageSize)
		copy(out, m.Data(p))
		return out, m.Stats
	}
	a, sa := run()
	b, sb := run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different crash damage")
	}
	if sa != sb {
		t.Fatalf("same seed produced different stats: %+v vs %+v", sa, sb)
	}
	// A different seed must (for this much data) damage differently.
	m := New(Config{NVMFrames: 128, DRAMFrames: 32, Persist: ModeADR, CrashSeed: 4321},
		simclock.DefaultCostModel())
	p := PageID{Kind: KindNVM, Frame: 6}
	m.WriteAt(p, 0, bytes.Repeat([]byte{0x11}, PageSize))
	m.FlushPage(p)
	m.Fence()
	m.WriteAt(p, 0, bytes.Repeat([]byte{0x22}, PageSize))
	m.Crash()
	if bytes.Equal(a, m.Data(p)) {
		t.Fatal("different seeds produced identical damage")
	}
}

func TestTornLinesRevertWholeWords(t *testing.T) {
	m := newADRMemory(5)
	p := PageID{Kind: KindNVM, Frame: 7}
	old := bytes.Repeat([]byte{0xAA}, PageSize)
	new_ := bytes.Repeat([]byte{0xBB}, PageSize)
	m.WriteAt(p, 0, old)
	m.FlushPage(p)
	m.Fence()
	m.WriteAt(p, 0, new_)
	m.Crash()
	if m.Stats.CrashLinesTorn == 0 {
		t.Skip("seed produced no torn lines on this page")
	}
	d := m.Data(p)
	for w := 0; w < PageSize/WordSize; w++ {
		word := d[w*WordSize : (w+1)*WordSize]
		if !bytes.Equal(word, old[:WordSize]) && !bytes.Equal(word, new_[:WordSize]) {
			t.Fatalf("word %d shredded below 8-byte atomicity: % x", w, word)
		}
	}
}

func TestPersistAtomicShieldsWordFromDrop(t *testing.T) {
	m := newADRMemory(3)
	p := PageID{Kind: KindNVM, Frame: 8}
	// Dirty the first line, then atomically publish a word into it.
	m.WriteAt(p, 0, bytes.Repeat([]byte{0xCC}, LineSize))
	ev := m.Events()
	m.PersistAtomic(p, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if m.Events() != ev {
		t.Fatal("PersistAtomic fired a crash event")
	}
	// Force the crash RNG until the line is dropped or torn; in both
	// cases the atomically-published word must read back intact.
	for seed := uint64(0); seed < 64; seed++ {
		mm := newADRMemory(seed)
		mm.WriteAt(p, 0, bytes.Repeat([]byte{0xCC}, LineSize))
		mm.PersistAtomic(p, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		mm.Crash()
		got := make([]byte, 8)
		mm.ReadRaw(p, 0, got)
		if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
			t.Fatalf("seed %d: published word damaged: % x", seed, got)
		}
	}
}

func TestArmCrashAfterFiresAtExactEvent(t *testing.T) {
	m := newADRMemory(1)
	p := PageID{Kind: KindNVM, Frame: 9}
	m.ArmCrashAfter(3)
	fired := uint64(0)
	func() {
		defer func() {
			if r := recover(); r != nil {
				fired = r.(CrashError).Event
			}
		}()
		m.WriteAt(p, 0, []byte{1}) // event 1
		m.CrashPoint()             // event 2
		m.WriteAt(p, 8, []byte{2}) // event 3 -> boom
		t.Fatal("countdown did not fire")
	}()
	if fired != 3 {
		t.Fatalf("crash fired at event %d, want 3", fired)
	}
	// Disarmed after firing: further events are safe.
	m.WriteAt(p, 16, []byte{3})
	m.DisarmCrash()
	m.ArmCrashAfter(0) // arming with 0 disarms
	m.CrashPoint()
}

func TestEADRPrimitivesAreFree(t *testing.T) {
	m := newTestMemory() // eADR default
	p := PageID{Kind: KindNVM, Frame: 10}
	m.WriteAt(p, 0, []byte("x"))
	if m.UnflushedLines() != 0 {
		t.Fatal("eADR tracked a line")
	}
	if c := m.FlushPage(p) + m.Fence() + m.PersistAtomic(p, 0, []byte{1}); c != 0 {
		t.Fatalf("eADR persistence primitives charged %v", c)
	}
	if m.Stats.Flushes != 0 || m.Stats.Fences != 0 {
		t.Fatalf("eADR counted flushes/fences: %+v", m.Stats)
	}
}

// TestFenceRetiresOnlyFlushedLines: a fence drains exactly the lines
// flushed since the previous fence; dirty unflushed lines stay at risk no
// matter how large the write buffer is.
func TestFenceRetiresOnlyFlushedLines(t *testing.T) {
	m := newADRMemory(1)
	big := PageID{Kind: KindNVM, Frame: 6}
	small := PageID{Kind: KindNVM, Frame: 7}
	m.WriteAt(big, 0, bytes.Repeat([]byte{1}, PageSize)) // 64 lines
	m.WriteAt(small, 0, bytes.Repeat([]byte{2}, 2*LineSize))
	m.Flush(small, 0, 2*LineSize)
	if n := m.UnflushedLines(); n != 66 {
		t.Fatalf("UnflushedLines = %d before the fence, want 66 (flushed-but-unfenced lines count)", n)
	}
	m.Fence()
	if n := m.UnflushedLines(); n != 64 {
		t.Fatalf("UnflushedLines = %d after the fence, want 64", n)
	}
	for l := 0; l < 2; l++ {
		if m.wbOf(small.Frame).shadowOf(l) != nil {
			t.Errorf("flushed line %d of %v still buffered", l, small)
		}
	}
	if len(m.drain) != 0 {
		t.Errorf("drain list holds %d lines after the fence", len(m.drain))
	}
}

// TestRedirtiedLineStaysAtRisk: a line flushed and then written again is
// volatile once more, so the fence must not retire it even though Flush
// queued it for draining.
func TestRedirtiedLineStaysAtRisk(t *testing.T) {
	m := newADRMemory(1)
	p := PageID{Kind: KindNVM, Frame: 8}
	m.WriteAt(p, 0, []byte("first"))
	m.Flush(p, 0, 5)
	m.WriteAt(p, 0, []byte("again"))
	m.Fence()
	if n := m.UnflushedLines(); n != 1 {
		t.Fatalf("UnflushedLines = %d, want the re-dirtied line still at risk", n)
	}
	if w := m.wbOf(p.Frame); w.shadowOf(0) == nil || w.flushed&1 != 0 {
		t.Fatalf("re-dirtied line: %+v, want buffered and unflushed", w)
	}
}

// TestDuplicateDrainEntriesHarmless: a line flushed, re-dirtied and flushed
// again is flushed twice but its frame is queued once; one fence retires it
// and the next fence finds nothing to do.
func TestDuplicateDrainEntriesHarmless(t *testing.T) {
	m := newADRMemory(1)
	p := PageID{Kind: KindNVM, Frame: 9}
	m.WriteAt(p, 0, []byte("one"))
	m.Flush(p, 0, 3)
	m.WriteAt(p, 0, []byte("two"))
	m.Flush(p, 0, 3)
	if len(m.drain) != 1 {
		t.Fatalf("drain list = %d entries, want the frame queued once", len(m.drain))
	}
	m.Fence()
	if n := m.UnflushedLines(); n != 0 {
		t.Fatalf("UnflushedLines = %d after the fence", n)
	}
	m.Fence()
	m.Crash()
	if m.Stats.CrashLinesAtRisk != 0 {
		t.Fatalf("fenced line at risk at the crash: %+v", m.Stats)
	}
	buf := make([]byte, 3)
	m.ReadAt(p, 0, buf)
	if string(buf) != "two" {
		t.Fatalf("fenced line lost its last store: %q", buf)
	}
}

// TestCrashClearsDrainList: lines queued by a flush but never fenced are
// resolved by the crash like any other buffered line, and the drain list
// does not leak into the next epoch.
func TestCrashClearsDrainList(t *testing.T) {
	m := newADRMemory(4)
	p := PageID{Kind: KindNVM, Frame: 10}
	m.WriteAt(p, 0, bytes.Repeat([]byte{3}, PageSize))
	m.FlushPage(p)
	m.Crash()
	if len(m.drain) != 0 || m.UnflushedLines() != 0 || len(m.wbf) != 0 || m.wbOf(p.Frame) != nil {
		t.Fatalf("after the crash: drain %d, buffered %d, frames %d", len(m.drain), m.UnflushedLines(), len(m.wbf))
	}
	if m.Stats.CrashLinesAtRisk != PageSize/LineSize {
		t.Fatalf("CrashLinesAtRisk = %d, want every flushed-but-unfenced line", m.Stats.CrashLinesAtRisk)
	}
}
