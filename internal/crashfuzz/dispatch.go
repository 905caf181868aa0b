package crashfuzz

// dispatch binds the shared fuzz-input codec (internal/faultplane/fuzzio)
// to the six one-shot campaign entry points. The native Fuzz* targets and
// the corpus-compat regression test both route through RunOneShot, so a
// decoded Input means the same injection everywhere.

import (
	"fmt"

	"treesls/internal/faultplane"
)

// oneShots maps each fault domain to its one-shot executor. The positional
// argument layouts live in faultplane.Schemas; this table is the only place
// that turns a decoded Input into a one-shot call, and every one-shot takes
// its domain's own injection path — the code each campaign round runs.
var oneShots = map[string]func(in faultplane.Input) error{
	"crash": func(in faultplane.Input) error {
		return OneShot(in.Mode(), in.Seed, in.EventK, in.Steps, in.Flag)
	},
	"net": func(in faultplane.Input) error {
		return NetOneShot(in.Mode(), in.Seed, in.EventK, in.Steps)
	},
	"media": func(in faultplane.Input) error {
		return OneShotMedia(in.Mode(), in.Seed, in.Aux, in.Aux2, in.Flag)
	},
	"repl": func(in faultplane.Input) error {
		return ReplOneShot(in.Mode(), in.Variant, in.Seed, in.EventK, in.Steps)
	},
	"cluster": func(in faultplane.Input) error {
		return ClusterOneShot(in.Mode(), in.Seed, in.EventK, in.Target, in.Steps)
	},
	"reshard": func(in faultplane.Input) error {
		return ReshardOneShot(in.Mode(), in.Seed, in.EventK, in.Target, in.Steps)
	},
}

// FuzzTargetNames maps each fault domain to its native fuzz target (and
// thus its testdata/fuzz corpus directory).
var FuzzTargetNames = map[string]string{
	"crash":   "FuzzCrashEvent",
	"net":     "FuzzNetCrashEvent",
	"media":   "FuzzMediaFault",
	"repl":    "FuzzReplCrashEvent",
	"cluster": "FuzzClusterCrashEvent",
	"reshard": "FuzzReshardEvent",
}

// RunOneShot decodes domain-positional fuzz values through the shared codec
// and executes the matching one-shot injection.
func RunOneShot(domain string, vals ...interface{}) error {
	in, err := faultplane.Decode(domain, vals)
	if err != nil {
		return err
	}
	return DispatchOneShot(in)
}

// DispatchOneShot executes the one-shot injection a decoded Input selects.
func DispatchOneShot(in faultplane.Input) error {
	fn, ok := oneShots[in.Domain]
	if !ok {
		return fmt.Errorf("crashfuzz: no one-shot for domain %q", in.Domain)
	}
	return fn(in)
}
