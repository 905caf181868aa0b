package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"

	"treesls/internal/checkpoint"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// digest hashes every generated input: the values drawn from the seeded
// streams and the keys and values built from them. Two runs that generate
// the same inputs have the same digest.
type digest struct {
	h   hash.Hash64
	buf [8]byte // reused, so that word does not allocate in the timed region
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) word(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs, the zero
// value when xs is empty.
func quantile[T cmp.Ordered](xs []T, p float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	s := append([]T(nil), xs...)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// us converts a simulated duration to microseconds, keeping every digit.
func us(d simclock.Duration) float64 { return float64(d) / float64(simclock.Microsecond) }

// median returns the median of xs (mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// per divides, returning 0 for an empty base.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rounds collects one Report per checkpoint round. The copy overhang is
// defined as what STWTotal leaves after IPI, CapTree and Others, so the four
// parts add up to STWTotal exactly by construction. What add checks is that
// the overhang is a real hybrid-copy tail: 0 <= overhang <= HybridCopy, so 0
// on a round without hybrid copy.
type rounds struct {
	reps []checkpoint.Report
	// over is each round's hybrid-copy tail past the leader's resume:
	// STWTotal - IPIWait - CapTree - Others.
	over []simclock.Duration
}

func (r *rounds) add(rep checkpoint.Report) error {
	over := rep.STWTotal - rep.IPIWait - rep.CapTree - rep.Others
	if over < 0 {
		return fmt.Errorf("round v%d: STW %d ns is shorter than IPI %d + CapTree %d + Others %d",
			rep.Version, rep.STWTotal, rep.IPIWait, rep.CapTree, rep.Others)
	}
	if over > rep.HybridCopy {
		return fmt.Errorf("round v%d: copy overhang %d ns exceeds the hybrid copy %d ns", rep.Version, over, rep.HybridCopy)
	}
	r.reps = append(r.reps, rep)
	r.over = append(r.over, over)
	return nil
}

func (r *rounds) field(f func(checkpoint.Report) simclock.Duration) []simclock.Duration {
	ds := make([]simclock.Duration, len(r.reps))
	for i, rep := range r.reps {
		ds[i] = f(rep)
	}
	return ds
}

func (r *rounds) mean(f func(checkpoint.Report) int) float64 {
	var t float64
	for _, rep := range r.reps {
		t += float64(f(rep))
	}
	return per(t, float64(len(r.reps)))
}

// metrics records this round set's STW percentiles and checkpoint-layer
// figures into sim.
func (r *rounds) metrics(sim map[string]float64) {
	stw := r.field(func(x checkpoint.Report) simclock.Duration { return x.STWTotal })
	sim["sim_stw_p50_us"] = us(quantile(stw, 0.50))
	sim["sim_stw_p99_us"] = us(quantile(stw, 0.99))
	parts := []struct {
		name string
		ds   []simclock.Duration
	}{
		{"checkpoint.ipi_us", r.field(func(x checkpoint.Report) simclock.Duration { return x.IPIWait })},
		{"checkpoint.captree_us", r.field(func(x checkpoint.Report) simclock.Duration { return x.CapTree })},
		{"checkpoint.others_us", r.field(func(x checkpoint.Report) simclock.Duration { return x.Others })},
		{"checkpoint.copy_overhang_us", r.over},
	}
	for _, p := range parts {
		sim[p.name+"_p50"] = us(quantile(p.ds, 0.50))
		sim[p.name+"_p99"] = us(quantile(p.ds, 0.99))
	}
	sim["checkpoint.hybridcopy_us_p50"] = us(quantile(r.field(func(x checkpoint.Report) simclock.Duration { return x.HybridCopy }), 0.50))
	sim["checkpoint.release_us_p50"] = us(quantile(r.field(func(x checkpoint.Report) simclock.Duration { return x.Release }), 0.50))
	sim["checkpoint.pages_copied_per_round"] = r.mean(func(x checkpoint.Report) int {
		return x.PagesStopCopied + x.DirtyDRAMCopied
	})
	sim["checkpoint.migrated_per_round"] = r.mean(func(x checkpoint.Report) int { return x.Migrated })
	sim["checkpoint.demoted_per_round"] = r.mean(func(x checkpoint.Report) int { return x.Demoted })
	sim["checkpoint.cached_pages"] = r.mean(func(x checkpoint.Report) int { return x.CachedPages })
	sim["checkpoint.walk_units_per_round"] = r.mean(func(x checkpoint.Report) int { return x.WalkUnits })
	sim["checkpoint.walk_steals_per_round"] = r.mean(func(x checkpoint.Report) int { return x.WalkSteals })
	sim["caps.objects_per_round"] = r.mean(func(x checkpoint.Report) int {
		n := 0
		for _, c := range x.PerKindCount {
			n += c
		}
		return n
	})
	sim["sim_rounds"] = float64(len(r.reps))
}

// counters snapshots the cumulative device, allocator, journal, kernel and
// checkpoint counters of one machine.
type counters struct {
	mem       mem.Stats
	ckptAlloc uint64
	records   uint64
	ops       uint64
	cow       uint64
	ckpts     uint64
}

func snap(m *kernel.Machine) counters {
	return counters{
		mem:       m.Memory.Stats,
		ckptAlloc: m.Alloc.Stats.CkptPageAllocs,
		records:   m.Journal.Records,
		ops:       m.Stats.Ops,
		cow:       m.Ckpt.Stats.COWFaults,
		ckpts:     m.Ckpt.Stats.Checkpoints,
	}
}

// sub returns the counters accumulated since b.
func (a counters) sub(b counters) counters {
	return counters{
		mem: mem.Stats{
			NVMPageWrites:  a.mem.NVMPageWrites - b.mem.NVMPageWrites,
			NVMPageReads:   a.mem.NVMPageReads - b.mem.NVMPageReads,
			DRAMPageWrites: a.mem.DRAMPageWrites - b.mem.DRAMPageWrites,
			Flushes:        a.mem.Flushes - b.mem.Flushes,
			Fences:         a.mem.Fences - b.mem.Fences,
		},
		ckptAlloc: a.ckptAlloc - b.ckptAlloc,
		records:   a.records - b.records,
		ops:       a.ops - b.ops,
		cow:       a.cow - b.cow,
		ckpts:     a.ckpts - b.ckpts,
	}
}

func (a counters) add(b counters) counters {
	return counters{
		mem: mem.Stats{
			NVMPageWrites:  a.mem.NVMPageWrites + b.mem.NVMPageWrites,
			NVMPageReads:   a.mem.NVMPageReads + b.mem.NVMPageReads,
			DRAMPageWrites: a.mem.DRAMPageWrites + b.mem.DRAMPageWrites,
			Flushes:        a.mem.Flushes + b.mem.Flushes,
			Fences:         a.mem.Fences + b.mem.Fences,
		},
		ckptAlloc: a.ckptAlloc + b.ckptAlloc,
		records:   a.records + b.records,
		ops:       a.ops + b.ops,
		cow:       a.cow + b.cow,
		ckpts:     a.ckpts + b.ckpts,
	}
}

// metrics records the per-request and per-round device and layer counts.
// reqs is the number of acknowledged requests, sets the acknowledged SETs
// and nrounds the checkpoint rounds the counters span.
func (a counters) metrics(sim map[string]float64, reqs, sets, nrounds float64) {
	kreqs := reqs / 1000
	sim["nvm_writes_per_user_write"] = per(float64(a.mem.NVMPageWrites), sets)
	sim["mem.nvm_writes_per_kop"] = per(float64(a.mem.NVMPageWrites), kreqs)
	sim["mem.nvm_reads_per_kop"] = per(float64(a.mem.NVMPageReads), kreqs)
	sim["mem.dram_writes_per_kop"] = per(float64(a.mem.DRAMPageWrites), kreqs)
	sim["mem.flushes_per_kop"] = per(float64(a.mem.Flushes), kreqs)
	sim["mem.fences_per_kop"] = per(float64(a.mem.Fences), kreqs)
	sim["checkpoint.cow_faults_per_kop"] = per(float64(a.cow), kreqs)
	sim["alloc.ckpt_page_allocs_per_round"] = per(float64(a.ckptAlloc), nrounds)
	sim["journal.records_per_round"] = per(float64(a.records), nrounds)
	sim["kernel.ops_per_req"] = per(float64(a.ops), reqs)
}
