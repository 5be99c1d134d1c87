package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/interp"
)

// mixSeed derives an independent 63-bit seed from the run seed and a
// path of indexes (pass, job, ...), so every generated input is a pure
// function of -seed and streams for different indexes never overlap.
func mixSeed(seed int64, path ...int64) int64 {
	h := sha256.New()
	var b [8]byte
	for _, v := range append([]int64{seed}, path...) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return int64(binary.LittleEndian.Uint64(h.Sum(nil)[:8]) >> 1)
}

// drawInputs draws n test inputs for a kernel signature. Integer elements
// come from [0,256) — the fuzzer's own seeding range — or, one time in
// four, from the program's constant dictionary so that equality-guarded
// branches are reachable; floats are N(0, 10). Every value is wrapped to
// its declared width, so inputs are always type-valid.
func drawInputs(sp fuzz.Spec, r *rand.Rand, n int) []fuzz.TestCase {
	out := make([]fuzz.TestCase, n)
	for k := range out {
		tc := fuzz.TestCase{Args: make([]fuzz.Arg, len(sp.Params))}
		for i, p := range sp.Params {
			a := p.Clone()
			for j := range a.Ints {
				v := r.Int63n(256)
				if len(sp.Dict) > 0 && r.Intn(4) == 0 {
					v = sp.Dict[r.Intn(len(sp.Dict))]
				}
				a.Ints[j] = interp.WrapInt(v, a.Width, a.Unsigned)
			}
			for j := range a.Floats {
				a.Floats[j] = r.NormFloat64() * 10
			}
			tc.Args[i] = a
		}
		out[k] = tc
	}
	return out
}

// heldOut draws up to n inputs the pipeline never saw, for checking a
// repaired program against its original. Each candidate recombines whole
// arguments of the pipeline's own tests (each argument is copied from a
// randomly chosen test) and is kept only if, run on the original, every
// integer variable stays inside the range the pipeline profiled from
// those tests. Bitwidth finitization is only promised on that envelope:
// unfiltered draws break about one repaired kernel in fourteen (fresh
// inputs) or one in a thousand (recombined inputs) through profiled
// widths, which measures the profile's reach rather than the repair.
//
// Of 4n draws, a recombination already drawn or equal to one of the
// pipeline's tests is skipped unrun. When no draw is kept — a kernel with
// one argument or one test has no recombinations — the pipeline's own
// tests are returned, so the re-parsed program is still run against them.
func heldOut(u *cast.Unit, kernel string, tests []fuzz.TestCase, r *rand.Rand, n int) []fuzz.TestCase {
	code := interp.NewCodebase()
	env, ok := ranges(u, kernel, tests, code)
	if !ok {
		return nil
	}
	var out []fuzz.TestCase
	drawn := map[string]bool{}
	for _, tc := range tests {
		drawn[fmt.Sprint(tc.Args)] = true
	}
	for attempt := 0; attempt < 4*n && len(out) < n; attempt++ {
		args := make([]fuzz.Arg, len(tests[0].Args))
		for i := range args {
			args[i] = tests[r.Intn(len(tests))].Args[i].Clone()
		}
		key := fmt.Sprint(args)
		if drawn[key] {
			continue
		}
		drawn[key] = true
		tc := fuzz.TestCase{Args: args}
		if got, ok := ranges(u, kernel, []fuzz.TestCase{tc}, code); ok && within(got, env) {
			out = append(out, tc)
		}
	}
	if len(out) == 0 {
		return tests
	}
	return out
}

// ranges profiles the integer variables of u over tests exactly as
// bitwidth profiling does (internal/profile): ranges accumulate across
// tests, crashing runs included. ok is false when no test completes. The
// runs use the compiled path, whose profiles equal the tree walker's.
func ranges(u *cast.Unit, kernel string, tests []fuzz.TestCase, code *interp.Codebase) (map[string]*interp.Range, bool) {
	in, err := interp.New(u, interp.Options{Profile: true, Code: code})
	if err != nil {
		return nil, false
	}
	ok := false
	for _, tc := range tests {
		if in.Reset() != nil {
			return nil, false
		}
		if _, err := in.CallKernel(kernel, tc.Values()); err == nil {
			ok = true
		}
	}
	return in.Profiles, ok
}

// within reports whether every range in got lies inside the same
// variable's range in env.
func within(got, env map[string]*interp.Range) bool {
	for name, g := range got {
		e, ok := env[name]
		if g.Seen && (!ok || !e.Seen || g.Min < e.Min || g.Max > e.Max) {
			return false
		}
	}
	return true
}
