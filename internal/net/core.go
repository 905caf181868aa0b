package net

import (
	"encoding/binary"
	"fmt"

	"treesls/internal/apps/kvstore"
	"treesls/internal/extsync"
	"treesls/internal/kernel"
	"treesls/internal/simclock"
)

// ClientCore is the closed-loop client logic both fleets share: this
// package's single-machine Fleet and the cluster's ring-routed one. Every
// key is its own request stream — request i (1-based) writes the key's
// counter to i, and the response echoes that value, so an acknowledgement
// for request i certifies the server durably holds (or held) counter >= i
// once released through the gate. Keys belong to clients in contiguous
// runs, and a client's pipeline window is summed over its keys.
//
// The core owns the client-side state and decisions: per-key send/ack
// cursors, the earliest-eligible sender pick, in-order/duplicate/gap
// receipt accounting, the rewind after a crash, and the justification
// check. A fleet adds the network (or networks) the frames travel over.
//
// The per-key request budget stays with the fleet's configuration, which
// passes it to NextSender, DoneAll and Drive (<= 0 means unbounded).
type ClientCore struct {
	window        uint64 // per-client pipeline depth across its keys
	valueBytes    int
	think         simclock.Duration
	keysPerClient int
	keys          []coreKey
	perClient     []uint64 // un-acked requests per client, summed over its keys
	totalAcked    uint64   // sum of every key's acked
	describe      func(j int) string
	peek          func(j int) (uint64, error)

	// OnAck, when set, observes every in-order acknowledgement (the
	// scenario digests hang off this).
	OnAck func(conn int, req uint64, recv simclock.Time)
	// OnSend, when set, observes every request put on the wire (including
	// retransmits) — the linearizability recorder's invocation feed.
	OnSend func(conn int, req uint64, at simclock.Time)

	// Latencies collects client-observed latency per acknowledgement, in
	// acknowledgement order.
	Latencies []simclock.Duration
	// Violations records per-key FIFO violations (a response for request
	// i arriving before i-1 was acknowledged) and, in the cluster,
	// receipts that arrived on the wrong shard. Must stay empty.
	Violations []string
	// Retransmits counts requests re-sent after a crash dropped their
	// frame or their un-released response.
	Retransmits uint64
	// DupAcks counts responses for already-acknowledged requests (never
	// produced by the gated path; a diagnostic for harness bugs).
	DupAcks uint64
}

type coreKey struct {
	key        []byte
	sent       uint64 // highest request index put on the wire
	acked      uint64 // highest contiguously acknowledged request index
	nextSendAt simclock.Time
}

// Defaulted fills the fleet sizing defaults (4 clients, window 4, 64-byte
// values) and rejects a gated value that does not fit one extsync slot:
// the gated response is the echoed value.
func (cfg FleetConfig) Defaulted(gated bool) (FleetConfig, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.ValueBytes < 8 {
		cfg.ValueBytes = 64
	}
	if gated && cfg.ValueBytes > extsync.MaxPayload {
		return cfg, fmt.Errorf("net: ValueBytes %d exceeds the %d-byte gated response slot",
			cfg.ValueBytes, extsync.MaxPayload)
	}
	return cfg, nil
}

// NewClientCore builds the core over keys, split evenly across a
// (Defaulted) cfg's clients. describe names key j in violation reports;
// peek reads key j's stored counter back from the server state that owns
// it (0 when absent).
func NewClientCore(cfg FleetConfig, keys [][]byte, describe func(j int) string, peek func(j int) (uint64, error)) ClientCore {
	c := ClientCore{
		window:        uint64(cfg.Window),
		valueBytes:    cfg.ValueBytes,
		think:         cfg.Think,
		keysPerClient: len(keys) / cfg.Clients,
		perClient:     make([]uint64, cfg.Clients),
		describe:      describe,
		peek:          peek,
	}
	for _, k := range keys {
		c.keys = append(c.keys, coreKey{key: k})
	}
	return c
}

// Keys returns how many keys the fleet drives.
func (c *ClientCore) Keys() int { return len(c.keys) }

// Key returns key j's stored name.
func (c *ClientCore) Key(j int) []byte { return c.keys[j].key }

// Acked returns key j's highest contiguously acknowledged request index.
func (c *ClientCore) Acked(j int) uint64 { return c.keys[j].acked }

// TotalAcked sums acknowledged requests across all keys.
func (c *ClientCore) TotalAcked() uint64 { return c.totalAcked }

// Value builds request req's value on key j: the 8-byte big-endian request
// index padded with a key-seasoned pattern to ValueBytes (CounterValue
// parses it back).
func (c *ClientCore) Value(j int, req uint64) []byte {
	v := make([]byte, c.valueBytes)
	binary.BigEndian.PutUint64(v, req)
	for i := 8; i < len(v); i++ {
		v[i] = byte(j + i)
	}
	return v
}

// CounterValue parses the per-key counter out of a stored value.
func CounterValue(v []byte) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// PeekCounter reads key's stored request counter from srv (0 when absent).
func PeekCounter(srv *kvstore.Server, key []byte) (uint64, error) {
	val, ok, err := srv.Peek(key)
	if err != nil {
		return 0, fmt.Errorf("net: peeking %q: %w", key, err)
	}
	if !ok {
		return 0, nil
	}
	return CounterValue(val), nil
}

// Receive accounts one response: in-order ones advance the key's window,
// stale ones count as duplicates, gaps are FIFO violations.
func (c *ClientCore) Receive(r Receipt) {
	k := &c.keys[r.Conn]
	switch {
	case r.Req == k.acked+1:
		k.acked++
		c.totalAcked++
		c.perClient[r.Conn/c.keysPerClient]--
		c.Latencies = append(c.Latencies, r.Receive.Sub(r.Submit))
		if t := r.Receive.Add(c.think); t > k.nextSendAt {
			k.nextSendAt = t
		}
		if c.OnAck != nil {
			c.OnAck(r.Conn, r.Req, r.Receive)
		}
	case r.Req <= k.acked:
		c.DupAcks++
	default:
		c.Violations = append(c.Violations, fmt.Sprintf("%s: response for request %d arrived with only %d acknowledged",
			c.describe(r.Conn), r.Req, k.acked))
	}
}

// NextSender picks the earliest-eligible key (budget left, client window
// open), ties broken by key index, and reports when it may send.
func (c *ClientCore) NextSender(requests int) (int, simclock.Time, bool) {
	best := -1
	for j := range c.keys {
		k := &c.keys[j]
		if requests > 0 && k.sent >= uint64(requests) {
			continue
		}
		if c.perClient[j/c.keysPerClient] >= c.window {
			continue
		}
		if best < 0 || k.nextSendAt < c.keys[best].nextSendAt {
			best = j
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, c.keys[best].nextSendAt, true
}

// Send puts key j's next request on the client's books and returns its
// index and submit time; the fleet then carries it over the wire.
func (c *ClientCore) Send(j int) (uint64, simclock.Time) {
	k := &c.keys[j]
	k.sent++
	c.perClient[j/c.keysPerClient]++
	if c.OnSend != nil {
		c.OnSend(j, k.sent, k.nextSendAt)
	}
	return k.sent, k.nextSendAt
}

// WireBytes is one request's payload: the key plus its value.
func (c *ClientCore) WireBytes(j int) int { return len(c.keys[j].key) + c.valueBytes }

func (c *ClientCore) outstanding() uint64 {
	var o uint64
	for _, n := range c.perClient {
		o += n
	}
	return o
}

// DoneAll reports whether every key reached a bounded request budget.
func (c *ClientCore) DoneAll(requests int) bool {
	if requests <= 0 {
		return false
	}
	for i := range c.keys {
		if c.keys[i].acked < uint64(requests) {
			return false
		}
	}
	return true
}

// Drive runs step until it reports done, failing when a bounded run stops
// making progress.
func (c *ClientCore) Drive(requests int, step func() (bool, error)) error {
	if requests <= 0 {
		return fmt.Errorf("fleet: Run needs a bounded FleetConfig.Requests")
	}
	want := uint64(len(c.keys) * requests)
	limit := int(want)*64 + 16384
	for i := 0; ; i++ {
		if i > limit {
			return fmt.Errorf("fleet: no progress after %d micro-steps (%d/%d acked)", limit, c.TotalAcked(), want)
		}
		done, err := step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Rewind realigns the keys match selects (every key when match is nil)
// with a server that crashed and restored: in-flight frames and unreleased
// responses are gone, so each rewinds its send cursor to its last
// acknowledged request and retransmits from there no earlier than rto.
// Retransmitted SETs are idempotent absolute writes, so replay is safe.
func (c *ClientCore) Rewind(rto simclock.Time, match func(j int) bool) {
	for j := range c.keys {
		if match != nil && !match(j) {
			continue
		}
		k := &c.keys[j]
		c.Retransmits += k.sent - k.acked
		c.perClient[j/c.keysPerClient] -= k.sent - k.acked
		k.sent = k.acked
		if rto > k.nextSendAt {
			k.nextSendAt = rto
		}
	}
}

// CheckJustified asserts the external-synchrony invariant against restored
// state: for every key, the client's highest acknowledged request index
// must not exceed the counter the server state holds — an
// acknowledged-but-unpersisted response is exactly the output commit the
// gate exists to prevent. Returns one description per violated key.
func (c *ClientCore) CheckJustified() ([]string, error) {
	var bad []string
	for j := range c.keys {
		counter, err := c.peek(j)
		if err != nil {
			return nil, err
		}
		if acked := c.keys[j].acked; acked > counter {
			bad = append(bad, fmt.Sprintf(
				"%s: client holds an acknowledgement for request %d but restored state justifies only %d",
				c.describe(j), acked, counter))
		}
	}
	return bad, nil
}

// PinWorkers pins process proc's worker threads round-robin to m's cores,
// so request steering stays deterministic under load. Idempotent; fleets
// re-apply it after a restore.
func PinWorkers(m *kernel.Machine, proc string) {
	p := m.Process(proc)
	if p == nil {
		return
	}
	for i, th := range p.Threads {
		th.Sched.Affinity = i % len(m.Cores)
	}
}

// Reply answers request p, whose SET produced (res, seq): through the gate
// when the network is gated, straight out otherwise with payloadBytes on
// the wire.
func (n *Network) Reply(p Packet, res kernel.OpResult, seq uint64, payloadBytes int) {
	if n.cfg.Gated {
		n.TrackResponse(seq, p.Conn, p.Req, p.Submit, res.End)
		return
	}
	n.CompleteDirect(p.Conn, p.Req, p.Submit, payloadBytes, res.Core)
}
