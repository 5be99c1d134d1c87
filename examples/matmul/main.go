// Matmul: the performance story. A clean (already-synthesizable, modulo
// one bad pragma) matrix multiplication gets its loop pragmas explored
// automatically; the example prints the simulated CPU-vs-FPGA latency
// before and after, showing where the paper's 1.63x mean speedup comes
// from.
//
// Run with:
//
//	go run ./examples/matmul
package main

import (
	"fmt"
	"log"

	"github.com/hetero/heterogen"
)

const src = `
void matmul(int a[1024], int b[1024], int c[1024]) {
    for (int i = 0; i < 32; i++) {
        for (int j = 0; j < 32; j++) {
#pragma HLS unroll factor=3
            int acc = 0;
            for (int k = 0; k < 32; k++) {
                acc += a[i * 32 + k] * b[k * 32 + j];
            }
            c[i * 32 + j] = acc;
        }
    }
}`

func main() {
	reps, err := heterogen.Check(src, heterogen.Options{Kernel: "matmul"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== before ==")
	for _, d := range reps[0].Report.Diags {
		fmt.Println(" ", d.Error())
	}

	res, err := heterogen.Transpile(src, heterogen.Options{
		Kernel: "matmul",
		Fuzz:   heterogen.FuzzOptions{Seed: 1, MaxExecs: 200, Plateau: 80, TypedMutation: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== repaired + tuned ==")
	fmt.Print(res.Source)
	fmt.Println("\n== performance ==")
	fmt.Printf("original on CPU : %.4f ms\n", res.CPUMeanMS)
	fmt.Printf("HLS on FPGA sim : %.4f ms\n", res.FPGAMeanMS)
	if res.Improved {
		fmt.Printf("speedup         : %.2fx\n", res.CPUMeanMS/res.FPGAMeanMS)
	}
	fmt.Printf("resource estimate: %s\n", res.Resources)
}
