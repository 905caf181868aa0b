package audit

import (
	"treesls/internal/caps"
	"treesls/internal/checkpoint"
	"treesls/internal/mem"
)

// freshSum is the reference page leaf: it hashes the page's bytes afresh
// instead of reading mem's memo.
func freshSum(memory *mem.Memory) func(mem.PageID) uint64 {
	return func(p mem.PageID) uint64 { return PageDigest(memory.Data(p)) }
}

// FreshStateDigest, FreshBackupDigest and FreshRestorableDigest are the
// exported digests with every page sum recomputed from the bytes.
func FreshStateDigest(tree *caps.Tree, memory *mem.Memory) uint64 {
	return stateDigest(tree, freshSum(memory))
}

func FreshBackupDigest(m *checkpoint.Manager, memory *mem.Memory) uint64 {
	return backupDigest(m, freshSum(memory), true)
}

func FreshRestorableDigest(m *checkpoint.Manager, memory *mem.Memory) uint64 {
	return backupDigest(m, freshSum(memory), false)
}

// RestoreSource exposes the auditor's independent restore-source rules.
var RestoreSource = restoreSource
