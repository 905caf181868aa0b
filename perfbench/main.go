// Command perfbench is the repository benchmark. It runs one named workload
// through the public APIs of the kernel, kvstore, net, repl, cluster and
// checkpoint layers, checks the outputs, and prints one JSON line of
// metrics on the simulated clock (sim_*, the paper's claims) and the host
// clock (host_*, how fast the simulator runs).
//
//	perfbench --workload kv-gated --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 runs one untraced and one traced episode, prints the per-layer
// metrics and writes the spans as a Chrome-trace file into --trace-dir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runner runs one episode of a workload at full size.
type runner func(seed uint64, traced bool) (*outcome, error)

var workloads = map[string]runner{
	"kv-gated": func(seed uint64, traced bool) (*outcome, error) {
		return kvGated(seed, gatedFull, traced)
	},
	"kv-largeheap": func(seed uint64, traced bool) (*outcome, error) {
		return kvLargeHeap(seed, heapFull, traced)
	},
	"cluster-reshard": func(seed uint64, traced bool) (*outcome, error) {
		return reshard(seed, reshardFull, traced)
	},
}

const (
	minEpisodes = 3
	maxEpisodes = 12
	// wallBudget stops adding episodes well inside the 180 s a run may take.
	wallBudget = 120 * time.Second
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	// Failed stays 0: a request that errors or is refused (an extsync
	// ring-full) stops the run before a result is printed.
	Failed  uint64           `json:"failed"`
	Metrics map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: kv-gated, kv-largeheap or cluster-reshard")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	traceDir := flag.String("trace-dir", ".", "directory for the Chrome-trace file of a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(run, *name, *seed, *traceDir)
	} else {
		res, err = untraced(run, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %v\n", *name, *seed, err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// untraced repeats the episode until the timed regions add up to the
// requested seconds (at least minEpisodes times). Simulated metrics come
// from the first episode and every repeat must reproduce them bit for bit;
// host metrics are medians over the episodes.
func untraced(run runner, seed uint64, seconds time.Duration) (*result, error) {
	start := time.Now()
	var outs []*outcome
	var timed time.Duration
	for len(outs) < minEpisodes || (timed < seconds && len(outs) < maxEpisodes && time.Since(start) < wallBudget) {
		runtime.GC() // the previous episode's machines are garbage; collect them before set-up is timed
		o, err := run(seed, false)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
		timed += o.host
		fmt.Fprintf(os.Stderr, "episode %d: setup %.3fs, timed %.3fs, %.3f kops/s host\n",
			len(outs), o.setup.Seconds(), o.host.Seconds(), hostKops(o))
	}
	res := &result{Correct: true, Attempted: outs[0].attempted, Metrics: map[string]value{}}
	for _, o := range outs[1:] {
		if err := sameSim(outs[0], o); err != nil {
			fmt.Fprintln(os.Stderr, "nondeterministic repeat:", err)
			res.Correct = false
		}
	}
	var setup, kops, alloc, live []float64
	for _, o := range outs {
		setup = append(setup, o.setup.Seconds())
		kops = append(kops, hostKops(o))
		alloc = append(alloc, float64(o.alloc)/1024/float64(o.acked))
		live = append(live, float64(o.live)/(1<<20))
	}
	host := map[string]float64{
		"setup_s":               median(setup),
		"host_kops_per_s":       median(kops),
		"host_alloc_kb_per_req": median(alloc),
		"host_live_heap_mb":     median(live),
	}
	for _, m := range endToEnd {
		v, ok := outs[0].sim[m.name]
		if !ok {
			v, ok = host[m.name]
		}
		if !ok {
			return nil, fmt.Errorf("workload did not produce metric %s", m.name)
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	return res, nil
}

func hostKops(o *outcome) float64 { return float64(o.acked) / o.host.Seconds() / 1000 }

// traced runs one untraced and one traced episode. The per-layer metrics
// come from the traced one; its simulated figures must equal the untraced
// ones, since tracing reads clocks and never drives the simulation.
func traced(run runner, name string, seed uint64, dir string) (*result, error) {
	plain, err := run(seed, false)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	o, err := run(seed, true)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: o.attempted, Metrics: map[string]value{}}
	if err := sameSim(plain, o); err != nil {
		fmt.Fprintln(os.Stderr, "tracing changed the simulation:", err)
		res.Correct = false
	}
	vals := layerMetrics(o, plain)
	for _, m := range perLayer {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := o.tr.writeChrome(path); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintln(os.Stderr, "trace written to", path)
	return res, nil
}

// sameSim reports the first simulated metric or input digest on which two
// episodes of the same seed differ.
func sameSim(a, b *outcome) error {
	if a.inputs != b.inputs {
		return fmt.Errorf("input digest %x != %x", a.inputs, b.inputs)
	}
	if len(a.sim) != len(b.sim) {
		return fmt.Errorf("%d simulated metrics != %d", len(a.sim), len(b.sim))
	}
	for k, v := range a.sim {
		if w, ok := b.sim[k]; !ok || w != v {
			return fmt.Errorf("%s: %v != %v", k, v, w)
		}
	}
	return nil
}
