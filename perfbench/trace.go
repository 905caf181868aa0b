package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"treesls/internal/simclock"
)

// span is one benchmark call into a layer, timed on both clocks.
type span struct {
	name   string
	layer  string
	parent int    // index of the enclosing span, -1 at the top level
	id     uint64 // request, step or round id
	host0  time.Duration
	host1  time.Duration
	sim0   simclock.Time
	sim1   simclock.Time
}

// tracer keeps spans in memory for one traced run. A nil *tracer is the
// untraced run: every method is then a no-op that reads no clock.
type tracer struct {
	clock func() simclock.Time
	t0    time.Time
	spans []span
	open  []int
	// window is the host time at which the timed region ended; the
	// self-time shares are taken over it.
	window time.Duration
}

func newTracer(clock func() simclock.Time) *tracer {
	return &tracer{clock: clock, t0: time.Now()}
}

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(name, layer string, id uint64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, layer: layer, parent: parent, id: id,
		sim0: t.clock(), host0: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.host1 = time.Since(t.t0)
	s.sim1 = t.clock()
	t.open = t.open[:len(t.open)-1]
}

// relabel renames span i once its call has shown what it did (a fleet step
// during which a checkpoint fired belongs to the kernel, not the network).
func (t *tracer) relabel(i int, name, layer string) {
	if t == nil {
		return
	}
	t.spans[i].name, t.spans[i].layer = name, layer
}

// close marks the end of the timed region.
func (t *tracer) close() {
	if t != nil {
		t.window = time.Since(t.t0)
	}
}

// hostUs returns the host durations, in microseconds, of the spans named name.
func (t *tracer) hostUs(name string) []float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.name == name {
			xs = append(xs, float64(s.host1-s.host0)/float64(time.Microsecond))
		}
	}
	return xs
}

// selfByLayer returns each layer's host self time over the spans that
// ended by limit: span time minus the time its child spans cover. The sum
// over layers is the time covered by top-level spans.
func (t *tracer) selfByLayer(limit time.Duration) map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.host1 - s.host0
		if s.parent >= 0 {
			self[s.parent] -= s.host1 - s.host0
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.host1 <= limit {
			out[s.layer] += self[i]
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome-trace JSON file (chrome://tracing
// or Perfetto): host time on the time axis, the simulated interval, layer,
// parent and id in each event's args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		ev := map[string]any{
			"name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": 1,
			"ts":  float64(s.host0) / float64(time.Microsecond),
			"dur": float64(s.host1-s.host0) / float64(time.Microsecond),
			"args": map[string]any{
				"layer": s.layer, "parent": s.parent, "id": s.id,
				"sim_start_ns": int64(s.sim0), "sim_end_ns": int64(s.sim1),
			},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "%s%s\n", b, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
