package crashfuzz

import (
	"testing"

	"treesls/internal/caps"
	"treesls/internal/kernel"
)

// TestAuditOracleSeesEarlierViolation: a violation found by one audit
// must still convict after a later audit came back clean. The kernel
// overwrites LastAudit at every checkpoint, publish and restore, so an
// oracle that read only the latest verdict would let the next clean
// restore hide a broken checkpoint.
func TestAuditOracleSeesEarlierViolation(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Audit = true
	m := kernel.New(cfg)
	m.TakeCheckpoint()
	if err := auditClean(m); err != nil {
		t.Fatalf("clean machine convicted: %v", err)
	}

	var victim *caps.ORoot
	m.Ckpt.ForEachRoot(func(r *caps.ORoot) {
		if victim == nil && r.Kind == caps.KindThread {
			victim = r
		}
	})
	if victim == nil {
		t.Fatal("no thread root")
	}
	// The audit a checkpoint runs, over a backup slot tagged above the
	// committed version; then the damage is undone.
	saved := victim.Ver[0]
	victim.Ver[0] = m.Ckpt.CommittedVersion() + 10
	if m.Auditor.Check(m.Tree, "checkpoint").Ok() {
		t.Fatal("audit missed a slot tagged above the committed version")
	}
	victim.Ver[0] = saved

	m.Crash()
	if err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if !m.LastAudit.Ok() {
		t.Fatalf("restore audit after the repair is not clean: %v", m.LastAudit.Violations)
	}
	if err := auditClean(m); err == nil {
		t.Error("the clean restore audit hid the failed checkpoint audit")
	} else {
		t.Log(err)
	}
}
