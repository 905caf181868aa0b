package crashfuzz

// The pieces every campaign shares: the one faultplane.Domain adapter, the
// runner that fills a domain's default round count, the armed-countdown
// step loop, the crash-during-restore recovery, and the oracles more than
// one domain registers.

import (
	"fmt"
	"math/rand"

	"treesls/internal/cluster"
	"treesls/internal/faultplane"
	"treesls/internal/kernel"
	"treesls/internal/net"
	"treesls/internal/repl"
	"treesls/internal/simclock"
)

// domain is the faultplane.Domain of every campaign: a name, an RNG stream
// label, and the per-seed world constructor.
type domain struct {
	name, label string
	build       func(seed uint64, rng *rand.Rand) (faultplane.World, error)
}

func (d domain) Name() string        { return d.name }
func (d domain) StreamLabel() string { return d.label }

func (d domain) Build(seed uint64, rng *rand.Rand) (faultplane.World, error) {
	return d.build(seed, rng)
}

// runDomain runs spec against base with any overlays composed onto it. A
// zero spec.RoundsPerSeed takes the domain's default, rounds.
func runDomain(spec faultplane.Spec, rounds int, base faultplane.Domain, overlays ...faultplane.Overlay) (faultplane.Stats, error) {
	if spec.RoundsPerSeed == 0 {
		spec.RoundsPerSeed = rounds
	}
	d := base
	if len(overlays) > 0 {
		d = faultplane.Compose(base, overlays...)
	}
	return faultplane.RunCampaign(spec, d)
}

// judge finishes a one-shot injection: a countdown that never fired is a
// valid, uninteresting input; a fired one answers to the world's full
// oracle registry.
func judge(w faultplane.World, fired bool, err error) error {
	if !fired || err != nil {
		return err
	}
	_, err = w.Oracles().Check()
	return err
}

// armedSteps arms a power failure k persistence events ahead on m, runs up
// to n steps until it fires, and disarms. An injected failure surfaces as
// fired; any other step error aborts. A countdown that outlives the n
// steps leaves the round unfired.
func armedSteps(m *kernel.Machine, k uint64, n int, step func() error) (fired bool, err error) {
	m.Memory.ArmCrashAfter(k)
	defer m.Memory.DisarmCrash()
	for i := 0; i < n && !fired; i++ {
		if fired, err = faultplane.CatchCrash(step); err != nil {
			return false, err
		}
	}
	return fired, nil
}

// restoreAfterCrash restores a crashed machine. When armed, one restore in
// faultplane.Defaults.RestoreCrashDenom first runs under its own power
// failure countdown of 1..window events: the recovery path's persistence
// events are crash points too, and a half-finished restore must be
// restartable from scratch. restoreCrashed reports that the countdown
// fired inside the restore.
func restoreAfterCrash(m *kernel.Machine, rng *rand.Rand, armed bool, window int) (restoreCrashed bool, err error) {
	if armed && rng.Intn(faultplane.Defaults.RestoreCrashDenom) == 0 {
		m.Memory.ArmCrashAfter(uint64(1 + rng.Intn(window)))
		fired, err := faultplane.CatchCrash(m.Restore)
		m.Memory.DisarmCrash()
		if err != nil {
			return false, fmt.Errorf("restore (armed): %w", err)
		}
		if !fired {
			return false, nil // the countdown outlived the restore
		}
		m.Crash()
		restoreCrashed = true
	}
	if err := m.Restore(); err != nil {
		return restoreCrashed, fmt.Errorf("restore: %w", err)
	}
	return restoreCrashed, nil
}

// probeStandby holds rep's standby to the replication contract at instant
// t: with no acknowledged checkpoint promotion must refuse; otherwise it
// must promote exactly the acknowledged version with the digest the
// primary recorded, and a retried promotion (the mid-failover crash
// boundary: the first standby build is abandoned and rebuilt from the same
// durable ledger) must land bit-identically. promoted reports that a
// standby was promoted.
func probeStandby(rep *repl.Replicator, t simclock.Time) (promoted bool, err error) {
	acked := rep.AckedVersion(t)
	if acked == 0 {
		if _, err := rep.FailoverAt(t); err == nil {
			return false, fmt.Errorf("promoted a standby with no acknowledged checkpoint")
		}
		return false, nil
	}
	fo, err := rep.FailoverAt(t)
	if err != nil {
		return false, fmt.Errorf("acknowledged checkpoint v%d lost: %w", acked, err)
	}
	if fo.Version != acked {
		return false, fmt.Errorf("promoted v%d, acknowledged v%d", fo.Version, acked)
	}
	if fo.Digest != fo.ExpectedDigest {
		return false, fmt.Errorf("standby digest %016x != primary digest %016x at v%d",
			fo.Digest, fo.ExpectedDigest, fo.Version)
	}
	retry, err := rep.FailoverAt(t)
	if err != nil {
		return false, fmt.Errorf("failover retry: %w", err)
	}
	if retry.Version != fo.Version || retry.Digest != fo.Digest {
		return false, fmt.Errorf("failover retry diverged: v%d/%016x then v%d/%016x",
			fo.Version, fo.Digest, retry.Version, retry.Digest)
	}
	return true, nil
}

// auditClean is the "audit" oracle: every state-digest audit of m so far
// (each checkpoint, publish and restore is audited) must have been clean.
// It reads the auditor's running total, not LastAudit, which the next
// clean audit overwrites.
func auditClean(m *kernel.Machine) error {
	if a := m.Auditor; a != nil && a.TotalViolations > 0 {
		f := a.FirstFailure
		return fmt.Errorf("%d audit violation(s) in %d audits, first at %s: %s",
			a.TotalViolations, a.Checks, f.Where, f.Violations[0])
	}
	return nil
}

// shardAudit is the "shard-audit" oracle: auditClean on every shard.
func shardAudit(c *cluster.Cluster) func() error {
	return func() error {
		for i, s := range c.Shards {
			if err := auditClean(s.M); err != nil {
				return fmt.Errorf("shard %d %w", i, err)
			}
		}
		return nil
	}
}

// justified is the "extsync-justified" oracle: no client holds an
// acknowledgement the recovered state cannot justify.
func justified(c *net.ClientCore) func() error {
	return func() error {
		bad, err := c.CheckJustified()
		if err != nil {
			return err
		}
		if len(bad) > 0 {
			return fmt.Errorf("released-but-unjustified response: %s", bad[0])
		}
		return nil
	}
}

// clientFIFO is the "client-fifo" oracle: client-observed per-key order
// never broke.
func clientFIFO(c *net.ClientCore) func() error {
	return func() error {
		if len(c.Violations) > 0 {
			return fmt.Errorf("client FIFO violation: %s", c.Violations[0])
		}
		return nil
	}
}

// noDupAcks is the "dup-acks" oracle: recovery never re-acknowledged a
// request.
func noDupAcks(c *net.ClientCore) func() error {
	return func() error {
		if c.DupAcks > 0 {
			return fmt.Errorf("%d duplicate acknowledgements after recovery", c.DupAcks)
		}
		return nil
	}
}
