package heterogen_test

import (
	"fmt"

	"github.com/hetero/heterogen"
)

// ExampleCheck runs only the synthesizability checker, the way a CI gate
// would.
func ExampleCheck() {
	reps, err := heterogen.Check(`
void kernel(int n) {
    int *p = (int *)malloc(n * sizeof(int));
    free(p);
}`, heterogen.Options{Kernel: "kernel"})
	if err != nil {
		panic(err)
	}
	for _, d := range reps[0].Report.Diags {
		fmt.Println(d.Error())
	}
	// Output:
	// ERROR: [SYNCHK 200-31] dynamic memory allocation/deallocation is not supported: call to 'malloc'
	// ERROR: [SYNCHK 200-31] dynamic memory allocation/deallocation is not supported: call to 'free'
	// ERROR: [SYNCHK 200-41] pointer 'p' is not supported: pointers are only allowed on top-level interface ports
}

// ExampleTranspile repairs the paper's Figure 4 unsupported-type kernel.
func ExampleTranspile() {
	res, err := heterogen.Transpile(`
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}`, heterogen.Options{
		Kernel: "top",
		Fuzz:   heterogen.FuzzOptions{MaxExecs: 100, Plateau: 40},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("compatible=%v behaviour=%v\n", res.Compatible, res.BehaviorOK)
	fmt.Print(res.Source)
	// Output:
	// compatible=true behaviour=true
	// int top(int in) {
	//     fpga_float<8,71> in_ld = in;
	//     in_ld = in_ld + 1;
	//     return (int)in_ld;
	// }
}

// ExampleGenerateTests shows Algorithm 1 in isolation.
func ExampleGenerateTests() {
	camp, err := heterogen.GenerateTests(`
int kernel(int x) {
    if (x == 42) { return 1; }
    return 0;
}`, heterogen.Options{Kernel: "kernel",
		Fuzz: heterogen.FuzzOptions{MaxExecs: 400, Plateau: 200}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("coverage=%.0f%%\n", 100*camp.Coverage)
	// Output:
	// coverage=100%
}
