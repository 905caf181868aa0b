// Package extsync implements TreeSLS's transparent external synchrony (§5):
// externally visible operations (sending network responses) are delayed
// until the state they depend on has been checkpointed, so that no client
// ever observes an acknowledgement for state that a power failure could
// still destroy.
//
// The mechanism follows Figure 8 exactly. The network driver keeps its send
// ring buffer and its three pointers (reader, writer, visible-writer) in an
// *eternal* PMO — a PMO the restore path does not roll back:
//
//   - Applications append responses at writer; they are not yet "on the
//     wire".
//   - The driver's checkpoint callback advances visible-writer to writer and
//     hands [old-visible, writer) to the (simulated) NIC: everything those
//     responses depend on is now persistent.
//   - The restore callback discards [visible-writer, writer): the
//     applications that produced those responses were rolled back and will
//     re-send them. The reader pointer is never rolled back (those packets
//     already hit the hardware).
//
// Applications need no modification — they call Send and the delay is
// handled below them, which is the point of the design.
package extsync

import (
	"fmt"

	"treesls/internal/caps"
	"treesls/internal/kernel"
	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// SlotSize is the fixed size of one ring slot: an 8-byte length prefix plus
// the payload.
const SlotSize = 256

// MaxPayload is the largest payload one slot carries.
const MaxPayload = SlotSize - 8

// header layout in page 0 of the ring PMO.
const (
	offReader  = 0
	offWriter  = 8
	offVisible = 16
	headerSize = 64 // one cacheline
)

// DeliverFunc receives one released message: its sequence number, payload,
// and the simulated time at which it reached the wire.
type DeliverFunc func(seq uint64, payload []byte, at simclock.Time)

// Stats counts driver activity.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Discarded uint64
	Full      uint64
}

// Driver is the external-synchrony network driver. It lives in the netd
// service process and registers checkpoint/restore callbacks with the
// checkpoint manager.
type Driver struct {
	m        *kernel.Machine
	pmoID    uint64
	capacity uint64 // slots

	// cached PMO resolution (invalidated when the tree is replaced).
	cachedTree *caps.Tree
	cachedPMO  *caps.PMO

	deliver DeliverFunc

	// deferred switches release from "at commit" to "at ReleaseUpTo":
	// the commit callback only records how far the ring had been written,
	// and an external condition (replication ack) triggers the actual
	// delivery. This is the repl-mode=remote durability knob — a response
	// reaches the wire only after the covering commit is BOTH locally
	// persistent and standby-acknowledged.
	deferred bool
	// pending records, per commit version, the writer position that the
	// commit covers. Volatile by design: a crash discards it, and
	// OnRestore rolls the un-released slots back for the applications to
	// re-send — deferred release never re-delivers across a crash.
	pending []pendingRange
	// releasedVersion is the highest commit version whose covered
	// responses have been handed to the NIC — in deferred mode the cut
	// (or ack) condition that last fired. Recovery drivers consult it to
	// re-issue an idempotent ReleaseUpTo after a coordinator loss.
	releasedVersion uint64

	Stats Stats
}

// pendingRange marks that commit `version` covers ring slots up to (but not
// including) `writer`.
type pendingRange struct {
	version uint64
	writer  uint64
}

// NewDriver creates the ring (capacity slots) in an eternal PMO of the netd
// process, pre-faults all its pages (eternal PMOs should be fully
// materialized before the first checkpoint), and registers the driver's
// callbacks.
func NewDriver(m *kernel.Machine, capacity uint64) (*Driver, error) {
	netd := m.Process("netd")
	if netd == nil {
		return nil, fmt.Errorf("extsync: no netd process (machine booted without services?)")
	}
	pages := uint64(1) + (capacity*SlotSize+mem.PageSize-1)/mem.PageSize
	_, pmo, err := netd.Mmap(pages, caps.PMOEternal)
	if err != nil {
		return nil, fmt.Errorf("extsync: mapping ring: %w", err)
	}
	d := &Driver{m: m, pmoID: pmo.ID(), capacity: capacity}
	lane := &m.Cores[0].Lane
	// Pre-fault every ring page.
	for i := uint64(0); i < pages; i++ {
		if _, err := m.MaterializePage(lane, pmo, i); err != nil {
			return nil, fmt.Errorf("extsync: materializing ring page %d: %w", i, err)
		}
	}
	m.Ckpt.Register(d)
	return d, nil
}

// SetDeliver installs the wire-delivery hook (the benchmark's client side).
func (d *Driver) SetDeliver(fn DeliverFunc) { d.deliver = fn }

// SetDeferred switches the driver between release-at-commit (false, the
// default, repl-mode=local) and release-at-ReleaseUpTo (true,
// repl-mode=remote, driven by the replication ack pump).
func (d *Driver) SetDeferred(on bool) { d.deferred = on }

// Deferred reports whether release is deferred to ReleaseUpTo.
func (d *Driver) Deferred() bool { return d.deferred }

// pmo resolves the ring PMO in the current runtime tree.
func (d *Driver) pmo() *caps.PMO {
	tree := d.m.Ckpt.Tree()
	if tree == d.cachedTree && d.cachedPMO != nil {
		return d.cachedPMO
	}
	d.cachedPMO = nil
	tree.Walk(func(o caps.Object) {
		if o.ID() == d.pmoID {
			d.cachedPMO = o.(*caps.PMO)
		}
	})
	if d.cachedPMO == nil {
		panic("extsync: ring PMO vanished from the tree")
	}
	d.cachedTree = tree
	return d.cachedPMO
}

// ringRead / ringWrite access the eternal PMO directly (driver-level code,
// below the VM layer), charging device costs to the lane.
func (d *Driver) ringRead(lane *simclock.Lane, off uint64, buf []byte) {
	pmo := d.pmo()
	for len(buf) > 0 {
		idx, po := off/mem.PageSize, int(off%mem.PageSize)
		n := mem.PageSize - po
		if n > len(buf) {
			n = len(buf)
		}
		s := pmo.Lookup(idx)
		if s == nil {
			panic(fmt.Sprintf("extsync: ring page %d not materialized", idx))
		}
		lane.Charge(d.m.Memory.ReadAt(s.Page, po, buf[:n]))
		off += uint64(n)
		buf = buf[n:]
	}
}

func (d *Driver) ringWrite(lane *simclock.Lane, off uint64, data []byte) {
	pmo := d.pmo()
	for len(data) > 0 {
		idx, po := off/mem.PageSize, int(off%mem.PageSize)
		n := mem.PageSize - po
		if n > len(data) {
			n = len(data)
		}
		s := pmo.Lookup(idx)
		if s == nil {
			panic(fmt.Sprintf("extsync: ring page %d not materialized", idx))
		}
		lane.Charge(d.m.Memory.WriteAt(s.Page, po, data[:n]))
		off += uint64(n)
		data = data[n:]
	}
}

func (d *Driver) readU64(lane *simclock.Lane, off uint64) uint64 {
	var b [8]byte
	d.ringRead(lane, off, b[:])
	v := uint64(0)
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// persistU64 publishes a ring pointer with the ntstore+sfence idiom: an
// aligned 8-byte store is atomic on real NVM, so the pointer can never
// tear, and it is durable the moment the call returns (free under eADR).
func (d *Driver) persistU64(lane *simclock.Lane, off uint64, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	s := d.pmo().Lookup(off / mem.PageSize)
	if s == nil {
		panic("extsync: ring header page not materialized")
	}
	lane.Charge(d.m.Memory.PersistAtomic(s.Page, int(off%mem.PageSize), b[:]))
}

// ringFlush write-backs (clwb) bytes [off, off+n) of the ring so a
// following Fence makes them durable under ADR. Free under eADR.
func (d *Driver) ringFlush(lane *simclock.Lane, off uint64, n int) {
	pmo := d.pmo()
	for n > 0 {
		idx, po := off/mem.PageSize, int(off%mem.PageSize)
		c := mem.PageSize - po
		if c > n {
			c = n
		}
		s := pmo.Lookup(idx)
		if s == nil {
			panic(fmt.Sprintf("extsync: ring page %d not materialized", idx))
		}
		lane.Charge(d.m.Memory.Flush(s.Page, po, c))
		off += uint64(c)
		n -= c
	}
}

func slotOff(seq, capacity uint64) uint64 {
	return uint64(headerSize) + (seq%capacity)*SlotSize
}

// Send appends a response message to the ring (Figure 8a). The message is
// NOT yet externally visible; it will reach the wire at the end of the next
// checkpoint. Returns the message's sequence number.
func (d *Driver) Send(lane *simclock.Lane, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("extsync: payload %d exceeds slot capacity %d", len(payload), MaxPayload)
	}
	lane.Charge(d.m.Model.IPCCall) // app -> driver
	writer := d.readU64(lane, offWriter)
	reader := d.readU64(lane, offReader)
	if writer-reader >= d.capacity {
		d.Stats.Full++
		return 0, fmt.Errorf("extsync: ring full (%d in flight)", writer-reader)
	}
	off := slotOff(writer, d.capacity)
	var hdr [8]byte
	for i := range hdr {
		hdr[i] = byte(uint64(len(payload)) >> (8 * i))
	}
	d.ringWrite(lane, off, hdr[:])
	d.ringWrite(lane, off+8, payload)
	// ADR discipline: the slot's bytes must be durable before the writer
	// advance publishes them, or a crash could expose a torn slot behind a
	// durable pointer (clwb the slot, sfence, then ntstore the pointer).
	d.ringFlush(lane, off, 8+len(payload))
	lane.Charge(d.m.Memory.Fence())
	d.persistU64(lane, offWriter, writer+1)
	d.Stats.Sent++
	return writer, nil
}

// Pending reports how many appended messages await the next checkpoint.
func (d *Driver) Pending(lane *simclock.Lane) uint64 {
	return d.readU64(lane, offWriter) - d.readU64(lane, offVisible)
}

// OnCheckpoint implements checkpoint.Callback (Figure 8b): every message
// appended before this checkpoint is now backed by persistent state, so the
// visible-writer advances and the messages go to the NIC.
func (d *Driver) OnCheckpoint(version uint64, lane *simclock.Lane) {
	writer := d.readU64(lane, offWriter)
	if d.deferred {
		// Remote durability: the commit alone does not release. Record
		// the covered prefix; ReleaseUpTo delivers once the standby has
		// acknowledged this version.
		d.pending = append(d.pending, pendingRange{version: version, writer: writer})
		return
	}
	visible := d.readU64(lane, offVisible)
	d.releasedVersion = version
	if writer == visible {
		return
	}
	d.release(lane, visible, writer)
}

// ReleasedVersion returns the highest commit version whose covered gated
// responses have been released to the wire.
func (d *Driver) ReleasedVersion() uint64 { return d.releasedVersion }

// ReleaseUpTo delivers every ring slot covered by a commit version ≤ version
// (deferred mode): called by the replication pump once the standby's ack for
// that version has arrived, with the lane already advanced to the ack time.
// A no-op when nothing pending qualifies.
func (d *Driver) ReleaseUpTo(version uint64, lane *simclock.Lane) {
	if !d.deferred {
		return
	}
	var target, covered uint64
	found := false
	n := 0
	for _, p := range d.pending {
		if p.version <= version {
			target, covered, found = p.writer, p.version, true
		} else {
			d.pending[n] = p
			n++
		}
	}
	d.pending = d.pending[:n]
	if !found {
		return
	}
	if covered > d.releasedVersion {
		d.releasedVersion = covered
	}
	visible := d.readU64(lane, offVisible)
	if target <= visible {
		return
	}
	d.release(lane, visible, target)
}

// release durably advances the pointers and delivers slots [visible, writer).
func (d *Driver) release(lane *simclock.Lane, visible, writer uint64) {
	// The advance is durable BEFORE the NIC sees a byte: if the pointer
	// updates could be lost to a power failure after delivery, a later
	// OnCheckpoint would re-release packets clients already received.
	// (The slots being "freed" by the reader advance are not reused until
	// the writer laps the ring, so delivering from them below is safe.)
	d.persistU64(lane, offVisible, writer)
	d.persistU64(lane, offReader, writer)
	for seq := visible; seq < writer; seq++ {
		off := slotOff(seq, d.capacity)
		var hdr [8]byte
		d.ringRead(lane, off, hdr[:])
		n := uint64(0)
		for i := 7; i >= 0; i-- {
			n = n<<8 | uint64(hdr[i])
		}
		payload := make([]byte, n)
		d.ringRead(lane, off+8, payload)
		// Doorbell plus serialization: the released response occupies the
		// wire for its size (internal/net's bandwidth model).
		lane.Charge(d.m.Model.NetTxPacket + simclock.Duration(len(payload))*d.m.Model.NetWireByte)
		if d.deliver != nil {
			d.deliver(seq, payload, lane.Now())
		}
		d.Stats.Delivered++
	}
}

// OnRestore implements checkpoint.Callback (Figure 8d): messages appended
// after the last checkpoint are discarded — the applications that produced
// them were rolled back and will re-send. The reader pointer is NOT rolled
// back: those packets already left through the hardware.
func (d *Driver) OnRestore(version uint64, lane *simclock.Lane) {
	d.cachedTree, d.cachedPMO = nil, nil // the tree was just replaced
	// Deferred ranges covered-but-unreleased at the crash are dropped with
	// the slots below: never-released means clients will retransmit, which
	// is always safe; re-releasing after a crash never is.
	d.pending = nil
	if d.releasedVersion > version {
		d.releasedVersion = version
	}
	writer := d.readU64(lane, offWriter)
	visible := d.readU64(lane, offVisible)
	if writer > visible {
		d.Stats.Discarded += writer - visible
		d.persistU64(lane, offWriter, visible)
	}
}
