// Fuzzing: test generation in isolation (the paper's Algorithm 1). The
// kernel hides a branch behind an equality constant and another behind a
// host-staged magic value; the example shows coverage-guided, type-valid
// mutation plus kernel-entry seed capture finding both.
//
// Run with:
//
//	go run ./examples/fuzzing
package main

import (
	"fmt"
	"log"

	"github.com/hetero/heterogen"
)

// The secret gate value is computed, never spelled as a literal, so
// neither blind mutation nor the constant dictionary can reach it — only
// capturing the host program's kernel-entry state does.
const src = `
int gate(int a, int b) { return a * 1000 + b; }
int kernel(fpga_uint<7> knob, int secret) {
    int score = 0;
    if (knob > 100) { score += 1; }
    if (knob == 77) { score += 10; }
    if (secret == gate(424, 242)) { score += 100; }
    for (int i = 0; i < knob % 8; i++) { score += i; }
    return score;
}
int host() {
    int staged = gate(424, 242);
    return kernel(42, staged);
}`

func main() {
	// Without host seeding: the computed secret is out of reach.
	fuzz := heterogen.FuzzOptions{MaxExecs: 1500, Plateau: 500}
	blind, err := heterogen.GenerateTests(src, heterogen.Options{Kernel: "kernel", Fuzz: fuzz})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blind fuzzing   : %s\n", blind.Summary())

	// With host seeding (Algorithm 1's getKernelSeed): the staged value
	// arrives as the seed and the branch is covered immediately.
	seeded, err := heterogen.GenerateTests(src, heterogen.Options{Kernel: "kernel", HostMain: "host", Fuzz: fuzz})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host-seeded     : %s (seeded=%v)\n", seeded.Summary(), seeded.SeededFromHost)

	fmt.Println("\nretained corpus (host-seeded):")
	for i, tc := range seeded.Tests {
		if i >= 10 {
			break
		}
		fmt.Printf("  test[%d] = %s\n", i, tc)
	}
	fmt.Println("\nall inputs above are type-valid for fpga_uint<7>: no generated")
	fmt.Println("knob value exceeds 127, so every execution reaches kernel logic.")
}
