package treesls

// One benchmark per table and figure of the paper's evaluation (§7), plus
// the Figure 7 copy-method ablation and the §7.2 functional suite. Each
// benchmark regenerates its table/figure at QuickScale and reports the
// headline quantity as custom metrics; run with
//
//	go test -bench=. -benchmem
//
// and use cmd/treesls-bench to print the full tables (or at FullScale).

import (
	"testing"

	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/experiments"
	"treesls/internal/mem"
	"treesls/internal/obs/audit"
	"treesls/internal/simclock"
)

func BenchmarkFunctionalCrashRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Functional(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Pass {
				b.Fatalf("%s: %s", r.Test, r.Note)
			}
		}
	}
}

func BenchmarkTable2WorkloadComposition(b *testing.B) {
	var pmoDelta int
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table2(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		pmoDelta = rows[5].Delta[caps.KindPMO] // Redis row
	}
	b.ReportMetric(float64(pmoDelta), "redis-pmo-delta")
}

func BenchmarkFigure9aSTWBreakdown(b *testing.B) {
	var defaultUs, redisUs float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure9a(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		defaultUs, redisUs = rows[0].TotalUs, rows[5].TotalUs
	}
	b.ReportMetric(defaultUs, "default-stw-µs")
	b.ReportMetric(redisUs, "redis-stw-µs")
}

func BenchmarkFigure9bCapTreeBreakdown(b *testing.B) {
	var threadUs float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure9b(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		threadUs = rows[5].PerKindUs[caps.KindThread]
	}
	b.ReportMetric(threadUs, "redis-thread-µs")
}

func BenchmarkTable3SingleObject(b *testing.B) {
	var pmoFullUs float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table3(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Kind == caps.KindPMO {
				pmoFullUs = r.MaxFull.Micros()
			}
		}
	}
	b.ReportMetric(pmoFullUs, "pmo-full-max-µs")
}

func BenchmarkFigure10RuntimeOverhead(b *testing.B) {
	var memcachedCOW, memcachedHybrid float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure10(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		memcachedCOW, memcachedHybrid = rows[0].PlusMemcpy, rows[0].Hybrid
	}
	b.ReportMetric(memcachedCOW, "memcached-cow-norm")
	b.ReportMetric(memcachedHybrid, "memcached-hybrid-norm")
}

func BenchmarkTable4HybridCopy(b *testing.B) {
	var eliminated float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table4(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		eliminated = rows[0].FaultsEliminated
	}
	b.ReportMetric(eliminated*100, "memcached-faults-eliminated-%")
}

func BenchmarkFigure11CheckpointFrequency(b *testing.B) {
	var p95At1ms float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure11(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Op == "SET" && r.IntervalMs == 1 {
				p95At1ms = r.P95Us
			}
		}
	}
	b.ReportMetric(p95At1ms, "set-p95-1ms-µs")
}

func BenchmarkFigure12ExternalSynchrony(b *testing.B) {
	var extP50 float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure12(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Config == "TreeSLS-ExtSync" && r.IntervalMs == 1 {
				extP50 = r.P50Ms
			}
		}
	}
	b.ReportMetric(extP50, "extsync-p50-1ms-ms")
}

func BenchmarkFigure13YCSBRedis(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure13(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		var t1ms, lwal float64
		for _, r := range rows {
			if r.Workload == "100% Update" {
				switch r.Config {
				case "TreeSLS-1ms":
					t1ms = r.ThroughKop
				case "Linux-WAL":
					lwal = r.ThroughKop
				}
			}
		}
		ratio = t1ms / lwal
	}
	b.ReportMetric(ratio, "treesls1ms-over-linuxwal")
}

func BenchmarkFigure14RocksDB(b *testing.B) {
	var apiRatio float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure14(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		var t1ms, api float64
		for _, r := range rows {
			switch r.Config {
			case "TreeSLS-1ms":
				t1ms = r.ThroughKop
			case "Aurora-API":
				api = r.ThroughKop
			}
		}
		apiRatio = t1ms / api
	}
	b.ReportMetric(apiRatio, "treesls1ms-over-auroraapi")
}

func BenchmarkAblationCopyMethods(b *testing.B) {
	var sacOverCow float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationCopyMethods(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		sacOverCow = rows[0].STWUs / rows[1].STWUs
	}
	b.ReportMetric(sacOverCow, "sac-pause-over-cow")
}

// BenchmarkRestoreTime runs the recovery-time extension study.
func BenchmarkRestoreTime(b *testing.B) {
	var largestUs float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.RestoreTime(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		largestUs = rows[len(rows)-1].RestoreUs
	}
	b.ReportMetric(largestUs, "restore-µs")
}

// BenchmarkSensitivityNVM runs the NVM-speed sensitivity extension study.
func BenchmarkSensitivityNVM(b *testing.B) {
	var p50AtOptane float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.SensitivityNVM(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Factor == 1.0 {
				p50AtOptane = r.OpP50Us
			}
		}
	}
	b.ReportMetric(p50AtOptane, "set-p50-µs")
}

// BenchmarkCheckpointDefault measures the raw checkpoint path itself: one
// incremental whole-system checkpoint of the default system image.
func BenchmarkCheckpointDefault(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	m := New(cfg)
	m.TakeCheckpoint() // full round outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TakeCheckpoint()
	}
	b.ReportMetric(m.Ckpt.LastReport.STWTotal.Micros(), "stw-µs")
}

// BenchmarkCrashRestore measures a whole crash+restore cycle of a machine
// with a loaded KV store.
func BenchmarkCrashRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultConfig()
		cfg.CheckpointEvery = 0
		m := New(cfg)
		p, err := m.NewProcess("app", 2)
		if err != nil {
			b.Fatal(err)
		}
		va, _, _ := p.Mmap(64, PMODefault)
		for j := uint64(0); j < 64; j++ {
			if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
				return e.WriteU64(va+j*4096, j)
			}); err != nil {
				b.Fatal(err)
			}
		}
		m.TakeCheckpoint()
		b.StartTimer()
		m.Crash()
		if err := m.Restore(); err != nil {
			b.Fatal(err)
		}
	}
}

// Host-side microbenchmarks of the simulator's own hot paths (they measure
// the Go program, not the simulated machine). Run with
//
//	go test -run '^$' -bench 'MemFence|ADRPageCopy|ReplCapture|PageChecksum|BackupDigest' -benchmem

// BenchmarkMemFence: an ADR write buffer holding 16 Ki dirty lines, with one
// line stored, flushed and fenced per iteration. The fence visits only the
// lines flushed since the previous one, so the cost must not grow with the
// buffer.
func BenchmarkMemFence(b *testing.B) {
	m := mem.New(mem.Config{NVMFrames: 1024, DRAMFrames: 1, Persist: mem.ModeADR},
		simclock.DefaultCostModel())
	page := make([]byte, mem.PageSize)
	for f := uint32(0); f < 256; f++ {
		m.WriteAt(mem.PageID{Kind: mem.KindNVM, Frame: f}, 0, page)
	}
	hot := mem.PageID{Kind: mem.KindNVM, Frame: 512}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteAt(hot, 0, page[:8])
		m.Flush(hot, 0, 8)
		m.Fence()
	}
	b.ReportMetric(float64(m.UnflushedLines()), "buffered-lines")
}

// BenchmarkADRPageCopy: the persistence of one checkpoint page copy under
// ADR — CopyPage DRAM→NVM, FlushPage, Fence — per iteration. The write
// buffer tracks the page's 64 lines as one frame entry with one mask bit
// per line.
func BenchmarkADRPageCopy(b *testing.B) {
	m := mem.New(mem.Config{NVMFrames: 64, DRAMFrames: 1, Persist: mem.ModeADR},
		simclock.DefaultCostModel())
	src := m.AllocDRAM()
	page := make([]byte, mem.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	m.WriteAt(src, 0, page)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := mem.PageID{Kind: mem.KindNVM, Frame: uint32(i % 64)}
		m.CopyPage(dst, src)
		m.FlushPage(dst)
		m.Fence()
	}
	if n := m.UnflushedLines(); n != 0 {
		b.Fatalf("%d lines still buffered", n)
	}
}

// heapBench boots the 1024-page heap machine the per-checkpoint host
// benchmarks share: every page written once and checkpointed. write stores
// v into heap page i.
func heapBench(b *testing.B) (m *Machine, write func(i, v uint64)) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	m = New(cfg)
	p, err := m.NewProcess("heap", 1)
	if err != nil {
		b.Fatal(err)
	}
	va, _, err := p.Mmap(heapBenchPages, PMODefault)
	if err != nil {
		b.Fatal(err)
	}
	write = func(i, v uint64) {
		if _, err := m.Run(p, p.MainThread(), func(e *Env) error {
			return e.WriteU64(va+i*mem.PageSize, v)
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := uint64(0); i < heapBenchPages; i++ {
		write(i, i+1)
	}
	m.TakeCheckpoint()
	return m, write
}

const heapBenchPages = 1024

// BenchmarkReplCapture: replication capture and diff of a 1024-page heap in
// which one page changed since the previous image. Unchanged pages are
// shared with the previous image rather than copied and compared.
func BenchmarkReplCapture(b *testing.B) {
	m, write := heapBench(b)
	prev := m.Ckpt.CaptureReplImage(m.SwapReadSlot, nil)
	var puts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		write(uint64(i)%heapBenchPages, uint64(i))
		m.TakeCheckpoint()
		b.StartTimer()
		img := m.Ckpt.CaptureReplImage(m.SwapReadSlot, prev)
		puts = len(checkpoint.DiffImages(prev, img).Puts)
		prev = img
	}
	b.ReportMetric(float64(puts), "puts/round")
}

// BenchmarkBackupDigest: the backup-tree digest the replicator records per
// checkpoint, over the same 1024-page heap with one page changed per round.
// Each page enters the digest as its memoized sum, so the cost is per page,
// not per byte. pages/op counts the page entries the digest folds in.
func BenchmarkBackupDigest(b *testing.B) {
	m, write := heapBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		write(uint64(i)%heapBenchPages, uint64(i))
		m.TakeCheckpoint()
		b.StartTimer()
		audit.BackupDigest(m.Ckpt, m.Memory)
	}
	b.StopTimer()
	committed := m.Ckpt.CommittedVersion()
	pages := 0
	m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
		if s, ok := r.Backup[0].(*caps.PMOSnap); ok {
			s.Pages.Walk(func(_ uint64, cp *caps.CkptPage) bool {
				if cp.Born <= committed {
					pages++
				}
				return true
			})
		}
	})
	b.ReportMetric(float64(pages), "pages/op")
}

// BenchmarkPageChecksum: the memoized frame sum on a hit (bytes unchanged
// since the last sum) and on a miss (one byte stored, so the page is
// re-hashed).
func BenchmarkPageChecksum(b *testing.B) {
	m := mem.New(mem.Config{NVMFrames: 4, DRAMFrames: 1}, simclock.DefaultCostModel())
	p := mem.PageID{Kind: mem.KindNVM, Frame: 1}
	m.WriteRaw(p, 0, []byte("page"))
	b.Run("memo-hit", func(b *testing.B) {
		m.Sum(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Sum(p)
		}
	})
	b.Run("memo-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.WriteRaw(p, 0, []byte{byte(i)})
			m.Sum(p)
		}
	})
}
