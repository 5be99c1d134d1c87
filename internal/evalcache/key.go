package evalcache

import "fmt"

// Key derivation — the single place that decides what each cached
// verdict depends on (and therefore what invalidates it). Every
// component is either program content or a rendered option value;
// anything that cannot affect the verdict — Workers, observers, the
// cache itself — is deliberately absent, so cold and warm runs address
// the same entries regardless of parallelism or tracing. Program
// content is always a cast fingerprint (callers compute it, since this
// package stays AST-agnostic), so the repair search, the pipeline and
// the standalone checker share every entry they have in common.
// Toolchain verdicts are always keyed per resolved (backend, device)
// target; an untargeted run is a run on hls.DefaultTarget.

// CheckSalt captures the toolchain configuration a synthesizability
// verdict depends on. The cached report is the untranslated one; the
// backend name still joins the part so verdicts for different
// toolchains stay apart, even on the same part. Combine with the
// candidate via CheckKey.
func CheckSalt(backend, top, device string, clockMHz float64) string {
	return Fingerprint("check-cfg", backend, top, device, fmt.Sprintf("%g", clockMHz))
}

// CheckKey addresses one StageCheck verdict.
func CheckKey(salt, unitFingerprint string) string {
	return Fingerprint("check", salt, unitFingerprint)
}

// ResourceKey addresses one StageSim estimate. Resource estimation
// walks only the design itself, so the design is the whole key — no
// target, which lets estimates carry across devices.
func ResourceKey(unitFingerprint string) string {
	return Fingerprint("sim", unitFingerprint)
}

// DifftestSalt captures everything a differential-test verdict depends
// on besides the candidate: the target configuration (the report embeds
// simulated latencies under the target's clock, and the interpreter
// step budget decides pass vs inconclusive), the kernel under test, the
// oracle program, and the test corpus. Combine with the candidate via
// DifftestKey.
func DifftestSalt(backend, top, device string, clockMHz float64, interpSteps int64, kernel, originalFingerprint, corpusHash string) string {
	return Fingerprint("difftest-cfg", backend, top, device,
		fmt.Sprintf("%g|%d", clockMHz, interpSteps),
		kernel, originalFingerprint, corpusHash)
}

// DifftestKey addresses one StageDifftest verdict.
func DifftestKey(salt, candidateFingerprint string) string {
	return Fingerprint("difftest", salt, candidateFingerprint)
}

// FuzzKey addresses one StageFuzz campaign: the program, the kernel,
// and every option that shapes the campaign's outcome. Workers is
// excluded by the determinism contract (campaigns are bit-identical
// for any value), and observers never change what a campaign computes.
func FuzzKey(unitFingerprint, kernel string, seed int64, maxExecs, plateau int, hostMain string, typedMutation bool, maxStepsPerExec int64) string {
	return Fingerprint("fuzz", unitFingerprint, kernel,
		fmt.Sprintf("%d|%d|%d|%t|%d", seed, maxExecs, plateau, typedMutation, maxStepsPerExec),
		hostMain)
}
