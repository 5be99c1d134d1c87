// Quickstart: transpile a small C kernel with an unsupported type to
// HLS-C in one call, and print the repaired source plus the verdict.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/hetero/heterogen"
)

// The Figure 4 shape: a long double intermediate is not synthesizable.
const src = `
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}`

func main() {
	// Before: show what the HLS toolchain rejects.
	reps, err := heterogen.Check(src, heterogen.Options{Kernel: "top"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== diagnostics before repair ==")
	for _, d := range reps[0].Report.Diags {
		fmt.Println(" ", d.Error())
	}

	// Transpile: test generation, bitwidth profiling, repair.
	res, err := heterogen.Transpile(src, heterogen.Options{
		Kernel: "top",
		Fuzz:   heterogen.FuzzOptions{MaxExecs: 300, Plateau: 100},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== repaired HLS-C ==")
	fmt.Print(res.Source)
	fmt.Println("\n== verdict ==")
	fmt.Println(res.Summary())
	for _, e := range res.Repair.Stats.EditLog {
		fmt.Println("edit:", e)
	}
}
