package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"treesls/internal/apps/kvstore"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/simclock"
)

// heapSize sizes a kv-largeheap episode.
type heapSize struct {
	keys      int // uniform keyspace
	valBytes  int
	heapPages uint64
	clients   int               // closed-loop clients; client c runs on worker thread c
	cycles    int               // crash cycles in the measured stream
	crashGap  simclock.Duration // mean simulated time between power failures
}

// heapFull puts about 10k resident heap pages behind a 4096-page hybrid-copy
// DRAM cache, so the write set overflows the cache.
var heapFull = heapSize{keys: 40000, valBytes: 900, heapPages: 12288, clients: 8,
	cycles: 6, crashGap: 40 * simclock.Millisecond}

const ckptEvery = simclock.Millisecond

// heapValue fills v with the value of write number wseq to key idx: an
// 8-byte (key, write) header and a filler derived from both, so a stale or
// torn value never reads back as the expected one.
func heapValue(v []byte, idx int, wseq uint32) {
	binary.LittleEndian.PutUint32(v[0:], uint32(idx))
	binary.LittleEndian.PutUint32(v[4:], wseq)
	x := uint32(idx)*2654435761 ^ wseq*40503
	for i := 8; i < len(v); i++ {
		x = x*1664525 + 1013904223
		v[i] = byte(x >> 24)
	}
}

// heapValueOK reports whether v is exactly heapValue(idx, wseq).
func heapValueOK(v []byte, size, idx int, wseq uint32) bool {
	if len(v) != size || binary.LittleEndian.Uint32(v[0:]) != uint32(idx) || binary.LittleEndian.Uint32(v[4:]) != wseq {
		return false
	}
	x := uint32(idx)*2654435761 ^ wseq*40503
	for i := 8; i < len(v); i++ {
		x = x*1664525 + 1013904223
		if v[i] != byte(x>>24) {
			return false
		}
	}
	return true
}

// kvLargeHeap drives a kvstore with 8 closed-loop clients calling
// Server.SetAt/GetAt directly, 50% GET / 50% SET uniform over the keyspace.
// Client c runs on worker thread c and sends its next op when the last one
// completes; latency is OpResult.Latency(), which includes any wait for a
// checkpoint's stop-the-world pause. Keys have seeded lengths of 16-48
// bytes, so the seed reaches the per-op hash and compare cost and not only
// the heap layout. The benchmark takes a checkpoint every 1 ms simulated
// (SettleTo, then TakeCheckpoint) and cuts the power about every 40 ms,
// after which every key must read back its value as of the restored
// checkpoint. The measured stream ends with the last of a fixed number of
// such cycles, so its final state is checked too.
func kvLargeHeap(seed uint64, sz heapSize, traced bool) (*outcome, error) {
	o := &outcome{sim: map[string]float64{}}
	in := newDigest()
	t0 := time.Now()

	cfg := kernel.DefaultConfig()
	cfg.Seed = seed
	cfg.CheckpointEvery = 0 // the benchmark issues every checkpoint
	m := kernel.New(cfg)
	srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
		Name: "kv", Threads: sz.clients, HeapPages: sz.heapPages, Buckets: 16384,
	})
	if err != nil {
		return nil, err
	}
	in.word(seed) // the machine seed
	r := faultplane.Stream(seed, "keys")
	keys := make([][]byte, sz.keys)
	val := make([]byte, sz.valBytes)
	for i := range keys {
		keys[i] = make([]byte, 16+r.Intn(33))
		copy(keys[i], fmt.Sprintf("lh%06d", i))
		for j := 8; j < len(keys[i]); j++ {
			keys[i][j] = 'a' + byte(r.Intn(26))
		}
		in.bytes(keys[i])
		heapValue(val, i, 0)
		if _, _, err := srv.SetAt(0, i%sz.clients, keys[i], val); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	m.TakeCheckpoint()
	o.setup = time.Since(t0)
	if traced {
		o.tr = newTracer(m.Now)
	}
	tr := o.tr

	// Shadow model: cur is each key's newest write, ckpt its write as of
	// the last checkpoint; dirty lists the keys written since then.
	cur := make([]uint32, sz.keys)
	ckpt := make([]uint32, sz.keys)
	var dirty []int
	var wseq uint32

	ops := faultplane.Stream(seed, "ops")
	gaps := faultplane.Stream(seed, "crashes")
	crashGap := func() simclock.Duration {
		g := sz.crashGap*3/4 + simclock.Duration(gaps.Int63n(int64(sz.crashGap/2)))
		in.word(uint64(g))
		return g
	}
	next := make([]simclock.Time, sz.clients)
	start := m.Now()
	for i := range next {
		next[i] = start
	}
	nextCkpt := start.Add(ckptEvery)
	nextCrash := start.Add(crashGap())

	var rs rounds
	var sets, gets, restores []simclock.Duration
	var checkSim simclock.Duration // simulated time spent in checks
	var excl counters              // counters accumulated by checks
	c0 := snap(m)
	w := startWatch()
	n := 0
	for cycle := 0; cycle < sz.cycles; {
		c := 0
		for i := range next {
			if next[i] < next[c] {
				c = i
			}
		}
		at := next[c]
		switch {
		case at >= nextCrash:
			crashAt := m.Now()
			cyc := tr.begin("bench.crash", "bench", uint64(cycle))
			sp := tr.begin("kernel.Machine.Crash", "kernel", uint64(cycle))
			m.Crash()
			tr.end(sp)
			sp = tr.begin("checkpoint.Machine.Restore", "checkpoint", uint64(cycle))
			err := m.Restore()
			tr.end(sp)
			tr.end(cyc)
			if err != nil {
				return nil, fmt.Errorf("restore: %w", err)
			}
			restores = append(restores, m.Now().Sub(crashAt))
			for _, k := range dirty {
				cur[k] = ckpt[k]
			}
			dirty = dirty[:0]
			w.pause()
			chk0, sim0 := snap(m), m.Now()
			if err := heapCheckAll(srv, keys, cur, sz.valBytes); err != nil {
				return nil, err
			}
			m.SettleTo(m.Now())
			checkSim += m.Now().Sub(sim0)
			excl = excl.add(snap(m).sub(chk0))
			w.resume()
			for i := range next {
				next[i] = m.Now()
			}
			nextCkpt = m.Now().Add(ckptEvery)
			nextCrash = m.Now().Add(crashGap())
			cycle++
		case at >= nextCkpt:
			round := uint64(len(rs.reps))
			rnd := tr.begin("bench.round", "bench", round)
			sp := tr.begin("kernel.Machine.SettleTo", "kernel", round)
			m.SettleTo(nextCkpt)
			tr.end(sp)
			sp = tr.begin("checkpoint.Machine.TakeCheckpoint", "checkpoint", round)
			rep := m.TakeCheckpoint()
			tr.end(sp)
			tr.end(rnd)
			if err := rs.add(rep); err != nil {
				return nil, err
			}
			for _, k := range dirty {
				ckpt[k] = cur[k]
			}
			dirty = dirty[:0]
			nextCkpt = nextCkpt.Add(ckptEvery)
		default:
			op := ops.Uint64()
			in.word(op)
			k := int(op>>1) % sz.keys
			if op&1 == 0 {
				wseq++
				heapValue(val, k, wseq)
				sp := tr.begin("kvstore.Server.SetAt", "kvstore", uint64(n))
				res, _, err := srv.SetAt(at, c, keys[k], val)
				tr.end(sp)
				if err != nil {
					return nil, fmt.Errorf("SET %s: %w", keys[k], err)
				}
				if cur[k] == ckpt[k] {
					dirty = append(dirty, k)
				}
				cur[k] = wseq
				sets = append(sets, res.Latency())
				next[c] = res.End
			} else {
				sp := tr.begin("kvstore.Server.GetAt", "kvstore", uint64(n))
				res, got, ok, err := srv.GetAt(at, c, keys[k])
				tr.end(sp)
				if err != nil {
					return nil, fmt.Errorf("GET %s: %w", keys[k], err)
				}
				w.pause()
				if !ok || !heapValueOK(got, sz.valBytes, k, cur[k]) {
					return nil, fmt.Errorf("GET %s returned a value other than write %d", keys[k], cur[k])
				}
				w.resume()
				gets = append(gets, res.Latency())
				next[c] = res.End
			}
			n++
		}
	}
	w.stop(o)
	tr.close()
	elapsed := m.Now().Sub(start) - checkSim
	d := snap(m).sub(c0).sub(excl)
	o.inputs = in.sum()
	o.attempted = uint64(n)
	o.acked = uint64(n)

	s := o.sim
	s["sim_set_p50_us"] = us(quantile(sets, 0.50))
	s["sim_set_p99_us"] = us(quantile(sets, 0.99))
	s["kvstore.get_sim_us_p50"] = us(quantile(gets, 0.50))
	s["kvstore.get_sim_us_p99"] = us(quantile(gets, 0.99))
	s["sim_kops_per_s"] = per(float64(n), elapsed.Millis())
	s["sim_restore_p50_us"] = us(quantile(restores, 0.50))
	rs.metrics(s)
	d.metrics(s, float64(n), float64(len(sets)), float64(len(rs.reps)))
	s["checkpoint.backup_pages"] = float64(m.Ckpt.Stats.BackupPages)
	return o, nil
}

// heapCheckAll reads every key back through Server.Peek and compares it with
// the shadow model's write.
func heapCheckAll(srv *kvstore.Server, keys [][]byte, want []uint32, size int) error {
	for i, k := range keys {
		got, ok, err := srv.Peek(k)
		if err != nil {
			return fmt.Errorf("peek %s: %w", k, err)
		}
		if !ok || !heapValueOK(got, size, i, want[i]) {
			return fmt.Errorf("key %s does not hold write %d (present %v)", k, want[i], ok)
		}
	}
	return nil
}
