package cliflag

import (
	"flag"
	"fmt"
	"strings"

	"github.com/hetero/heterogen/internal/hls"
)

// Target is the target family: -backend, -device and a repeatable
// -target, so a target set is spelled identically across the
// toolchain:
//
//	-device zc706                    one target, default backend
//	-backend vitis                   one target, the backend's first device
//	-backend vitis -device aws_f1    one fully-spelled target
//	-target vivado_hls:zc706 -target vitis:aws_f1
//	                                 a multi-target set (Pareto repair)
//
// Bare device names, full part names, and "backend:device" specs are
// all accepted (see hls.ParseTarget). No flag given resolves to an
// empty set: the default target, without the per-device verdict table
// and Pareto archive of a named set.
type Target struct {
	backend string
	device  string
	specs   specList
}

// specList collects repeated -target occurrences.
type specList []string

func (l *specList) String() string     { return strings.Join(*l, ",") }
func (l *specList) Set(v string) error { *l = append(*l, v); return nil }

// Register installs the target flags on fs.
func (f *Target) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.backend, "backend", "",
		"HLS backend to target (one of: "+strings.Join(hls.BackendNames(), ", ")+")")
	fs.StringVar(&f.device, "device", "",
		"device profile to target (e.g. xcvu9p, zc706, aws_f1; full part names accepted)")
	fs.Var(&f.specs, "target",
		"backend:device target, repeatable; two or more enable multi-target Pareto repair")
}

// Targets resolves the flags into a canonical, deduplicated target
// set. A nil set with a nil error means no flag was given — callers
// run untargeted, on the default target.
func (f *Target) Targets() ([]hls.Target, error) {
	specs := append([]string(nil), f.specs...)
	if f.backend != "" || f.device != "" {
		if len(specs) > 0 {
			return nil, fmt.Errorf("cliflag: -backend/-device cannot be combined with -target (spell every target as -target backend:device)")
		}
		switch {
		case f.backend != "" && f.device != "":
			specs = []string{f.backend + ":" + f.device}
		case f.backend != "":
			specs = []string{f.backend}
		default:
			specs = []string{f.device}
		}
	}
	ts, err := hls.ParseTargets(specs)
	if err != nil {
		return nil, fmt.Errorf("cliflag: %w", err)
	}
	return ts, nil
}

// StampMatcher returns a predicate over target stamps — the
// "+"-joined set string obs.TagTarget writes on every event of a
// targeted run. A stamp matches when any of its components is in
// want; the empty stamp of an untargeted run never matches.
func StampMatcher(want []hls.Target) func(stamp string) bool {
	wanted := map[string]bool{}
	for _, t := range want {
		wanted[t.String()] = true
	}
	return func(stamp string) bool {
		for _, part := range strings.Split(stamp, "+") {
			if wanted[part] {
				return true
			}
		}
		return false
	}
}
