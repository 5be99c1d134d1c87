package evalcache

import "fmt"

// Key derivation — the single place that decides what each cached
// verdict depends on (and therefore what invalidates it). Every
// component is either program content (cast.Print text, or the repair
// search's cast.Fingerprints content hash of it; callers pass both in
// since this package stays AST-agnostic) or a rendered option value;
// anything that cannot affect the verdict — Workers, observers, the
// cache itself, EvalDelay — is deliberately absent, so cold and warm
// runs address the same entries regardless of parallelism or tracing.
// Printed-text and fingerprint keys never collide: a fingerprint is a
// fixed-width hex string that is not valid C. Toolchain verdicts are
// always keyed per resolved (backend, device) target; an untargeted run
// is a run on hls.DefaultTarget.

// CheckSalt captures the toolchain configuration a synthesizability
// verdict depends on: the backend name joins the part so
// dialect-translated verdicts for different toolchains never collide,
// even on the same part. Combine with the candidate via CheckKey.
func CheckSalt(backend, top, device string, clockMHz float64) string {
	return Fingerprint("check-cfg", backend, top, device, fmt.Sprintf("%g", clockMHz))
}

// CheckKey addresses one StageCheck verdict.
func CheckKey(salt, unit string) string {
	return Fingerprint("check", salt, unit)
}

// ResourceKey addresses one StageSim estimate. Resource estimation
// walks only the design itself, so the design is the whole key — no
// target, which lets estimates carry across devices.
func ResourceKey(unit string) string {
	return Fingerprint("sim", unit)
}

// DifftestSalt captures everything a differential-test verdict depends
// on besides the candidate: the target configuration (the report embeds
// simulated latencies under the target's clock, and the interpreter
// step budget decides pass vs inconclusive), the kernel under test, the
// oracle program, and the test corpus. Combine with the candidate via
// DifftestKey.
func DifftestSalt(backend, top, device string, clockMHz float64, interpSteps int64, kernel, printedOriginal, corpusHash string) string {
	return Fingerprint("difftest-cfg", backend, top, device,
		fmt.Sprintf("%g|%d", clockMHz, interpSteps),
		kernel, printedOriginal, corpusHash)
}

// DifftestKey addresses one StageDifftest verdict.
func DifftestKey(salt, candidate string) string {
	return Fingerprint("difftest", salt, candidate)
}

// FuzzKey addresses one StageFuzz campaign: the program, the kernel,
// and every option that shapes the campaign's outcome. Workers is
// excluded by the determinism contract (campaigns are bit-identical
// for any value), and observers never change what a campaign computes.
func FuzzKey(printedUnit, kernel string, seed int64, maxExecs, plateau int, hostMain string, typedMutation bool, maxStepsPerExec int64) string {
	return Fingerprint("fuzz", printedUnit, kernel,
		fmt.Sprintf("%d|%d|%d|%t|%d", seed, maxExecs, plateau, typedMutation, maxStepsPerExec),
		hostMain)
}
