package repair

import (
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
	"github.com/hetero/heterogen/internal/interp"
)

func intTC(vals ...int64) fuzz.TestCase {
	tc := fuzz.TestCase{}
	for _, v := range vals {
		tc.Args = append(tc.Args, fuzz.Arg{Scalar: true, Ints: []int64{v}, Width: 32})
	}
	return tc
}

// applyNamed instantiates template id against the first matching
// diagnostic of the given unit and applies its first edit in place.
func applyNamed(t *testing.T, u *cast.Unit, id string, d hls.Diagnostic, st *State) {
	t.Helper()
	tmpl, ok := TemplateByID(id)
	if !ok {
		t.Fatalf("no template %q", id)
	}
	edits := tmpl.Instantiate(u, d, st)
	if len(edits) == 0 {
		t.Fatalf("%s produced no edits for %+v", id, d)
	}
	if err := edits[0].Apply(u); err != nil {
		t.Fatalf("%s apply: %v", id, err)
	}
	st.MarkApplied(edits[0])
	if edits[0].OnAccept != nil {
		edits[0].OnAccept(st)
	}
}

func TestClassifyMessage(t *testing.T) {
	cases := map[string]hls.ErrorClass{
		"Synthesizability check failed: recursive functions are not supported": hls.ClassDynamicData,
		"dynamic memory allocation/deallocation is not supported":              hls.ClassDynamicData,
		"unsupported memory access on variable with unknown size":              hls.ClassDynamicData,
		"type 'long double' is not synthesizable":                              hls.ClassUnsupportedType,
		"Call of overloaded 'pow()' is ambiguous":                              hls.ClassUnsupportedType,
		"pointer 'p' is not supported":                                         hls.ClassUnsupportedType,
		"Argument 'data' failed dataflow checking":                             hls.ClassDataflow,
		"Pre-synthesis failed: unroll factor":                                  hls.ClassLoopParallel,
		"size 13 is not a multiple of partition factor 4":                      hls.ClassLoopParallel,
		"Argument 'this' has an unsynthesizable struct type":                   hls.ClassStructUnion,
		"the connecting stream 'tmp' must be static":                           hls.ClassStructUnion,
		"Cannot find the top function 'kern' in the design":                    hls.ClassTopFunction,
	}
	for msg, want := range cases {
		if got := ClassifyMessage(msg); got != want {
			t.Errorf("ClassifyMessage(%q) = %s, want %s", msg, got, want)
		}
	}
}

func TestArrayStaticEdit(t *testing.T) {
	u := cparser.MustParse(`
void kernel(int cols, int out[8]) {
    int line_buf[cols];
    if (cols > 8) { cols = 8; }
    for (int i = 0; i < cols; i++) { line_buf[i] = i * 2; }
    for (int i = 0; i < cols; i++) { out[i] = line_buf[i]; }
}`)
	st := NewState()
	d := hls.Diagnostic{Subject: "line_buf", Class: hls.ClassDynamicData,
		Message: "unsupported memory access on variable 'line_buf' which is (or contains) an array with unknown size"}
	applyNamed(t, u, "array_static", d, st)
	rep := check.Run(u, hls.DefaultConfig("kernel"))
	for _, dg := range rep.Diags {
		if strings.Contains(dg.Message, "unknown size") {
			t.Errorf("unknown-size error persists: %v", dg)
		}
	}
	if st.Sizes["array:line_buf"] != initialArraySize {
		t.Errorf("size not recorded: %v", st.Sizes)
	}
	// Behaviour preserved: the static version agrees with the original.
	orig := cparser.MustParse(`
void kernel(int cols, int out[8]) {
    int line_buf[cols];
    if (cols > 8) { cols = 8; }
    for (int i = 0; i < cols; i++) { line_buf[i] = i * 2; }
    for (int i = 0; i < cols; i++) { out[i] = line_buf[i]; }
}`)
	tc := fuzz.TestCase{Args: []fuzz.Arg{
		{Scalar: true, Ints: []int64{5}, Width: 32},
		{Ints: make([]int64, 8), Width: 32},
	}}
	dt := difftest.Run(orig, u, "kernel", hls.DefaultConfig("kernel"), []fuzz.TestCase{tc})
	if !dt.AllPass() {
		t.Errorf("array_static broke behaviour: %s", dt.FirstDiff)
	}
}

func TestResizeEdit(t *testing.T) {
	u := cparser.MustParse(`
int buf[64];
void kernel(int n) { buf[0] = n; }`)
	st := NewState()
	st.Sizes["array:buf"] = 64
	d := hls.Diagnostic{Class: hls.ClassDynamicData, Message: "behavior divergence"}
	applyNamed(t, u, "resize", d, st)
	v := u.Var("buf")
	if v.Type.Bits() != 128*32 {
		t.Errorf("buf not doubled: %s", v.Type.C(""))
	}
	if st.Sizes["array:buf"] != 128 {
		t.Errorf("size book-keeping: %v", st.Sizes)
	}
}

const binaryTreeSrc = `
struct Node {
    int val;
    struct Node *left;
    struct Node *right;
};
struct Node *insert(struct Node *root, int v) {
    if (root == 0) {
        struct Node *n = (struct Node *)malloc(sizeof(struct Node));
        n->val = v;
        n->left = 0;
        n->right = 0;
        return n;
    }
    if (v < root->val) { root->left = insert(root->left, v); }
    else { root->right = insert(root->right, v); }
    return root;
}
int total;
void traverse(struct Node *curr) {
    if (curr == 0) { return; }
    total = total + curr->val;
    traverse(curr->left);
    traverse(curr->right);
}
int kernel(int n) {
    if (n < 0) { n = -n; }
    if (n > 24) { n = 24; }
    struct Node *root = 0;
    for (int i = 0; i < n; i++) {
        root = insert(root, (i * 37) % 101);
    }
    total = 0;
    traverse(root);
    return total;
}`

func TestPoolInsertAndPointerRemoval(t *testing.T) {
	u := cparser.MustParse(binaryTreeSrc)
	st := NewState()
	d := hls.Diagnostic{Subject: "malloc", Class: hls.ClassDynamicData,
		Message: "dynamic memory allocation/deallocation is not supported"}
	applyNamed(t, u, "insert", d, st)

	// Pool artifacts exist.
	if u.Var("Node_arr") == nil || u.Func("Node_malloc") == nil {
		t.Fatal("pool artifacts missing after insert")
	}
	if _, ok := u.Typedefs["Node_ptr"]; !ok {
		t.Fatal("Node_ptr typedef missing")
	}
	// malloc is gone.
	if calls := cast.CallsTo(u, "malloc"); len(calls) != 0 {
		t.Fatalf("malloc calls remain: %d", len(calls))
	}

	applyNamed(t, u, "pointer", hls.Diagnostic{Class: hls.ClassDynamicData}, st)

	// No pointer-to-Node types remain.
	if hasPointerTo(u, "Node") {
		t.Error("Node pointers remain after pointer removal")
	}
	printed := cast.Print(u)
	if !strings.Contains(printed, "Node_arr[") {
		t.Error("expected pool-indexed accesses in output")
	}

	// The pooled version still behaves identically (CPU semantics).
	orig := cparser.MustParse(binaryTreeSrc)
	in, err := interp.New(u, interp.Options{})
	if err != nil {
		t.Fatalf("pooled version init: %v\n%s", err, printed)
	}
	ino, _ := interp.New(orig, interp.Options{})
	for _, n := range []int64{0, 1, 5, 24} {
		want, err := ino.CallKernel("kernel", []interp.Value{interp.IntValue(n)})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Reset(); err != nil {
			t.Fatal(err)
		}
		got, err := in.CallKernel("kernel", []interp.Value{interp.IntValue(n)})
		if err != nil {
			t.Fatalf("pooled kernel(%d): %v", n, err)
		}
		if got.Ret.AsInt() != want.Ret.AsInt() {
			t.Errorf("kernel(%d): pooled %d, original %d", n, got.Ret.AsInt(), want.Ret.AsInt())
		}
		if err := ino.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	// The printed pooled version must re-parse (printable, valid C).
	if _, err := cparser.Parse(printed); err != nil {
		t.Errorf("pooled version does not reparse: %v", err)
	}
}

func TestStackTransPreOrderTraversal(t *testing.T) {
	u := cparser.MustParse(binaryTreeSrc)
	st := NewState()
	// Chain: pool, pointer removal, then both recursive functions.
	applyNamed(t, u, "insert", hls.Diagnostic{Subject: "malloc"}, st)
	applyNamed(t, u, "pointer", hls.Diagnostic{}, st)

	d := hls.Diagnostic{Subject: "traverse", Class: hls.ClassDynamicData,
		Message: "recursive functions are not supported"}
	tmpl, _ := TemplateByID("stack_trans")
	edits := tmpl.Instantiate(u, d, st)
	if len(edits) == 0 {
		t.Fatal("stack_trans not applicable to traverse")
	}
	if err := edits[0].Apply(u); err != nil {
		t.Fatalf("stack_trans: %v", err)
	}

	if len(cast.CallsTo(u.Func("traverse"), "traverse")) != 0 {
		t.Fatal("traverse still recursive")
	}
	printed := cast.Print(u)
	if !strings.Contains(printed, "traverse_stack") || !strings.Contains(printed, "switch") {
		t.Errorf("expected stack-machine shape:\n%s", printed)
	}

	// Semantics: compare sums for several sizes (traverse converted;
	// insert remains recursive, which the CPU interpreter handles).
	orig := cparser.MustParse(binaryTreeSrc)
	ino, _ := interp.New(orig, interp.Options{})
	inn, err := interp.New(u, interp.Options{})
	if err != nil {
		t.Fatalf("converted init: %v", err)
	}
	for _, n := range []int64{0, 1, 7, 13} {
		want, _ := ino.CallKernel("kernel", []interp.Value{interp.IntValue(n)})
		got, err := inn.CallKernel("kernel", []interp.Value{interp.IntValue(n)})
		if err != nil {
			t.Fatalf("converted kernel(%d): %v\n%s", n, err, printed)
		}
		if got.Ret.AsInt() != want.Ret.AsInt() {
			t.Errorf("kernel(%d): converted %d, original %d", n, got.Ret.AsInt(), want.Ret.AsInt())
		}
		ino.Reset()
		inn.Reset()
	}
	if _, err := cparser.Parse(printed); err != nil {
		t.Errorf("converted version does not reparse: %v", err)
	}
}

func TestStackTransMergeSortShape(t *testing.T) {
	src := `
int data[64];
void msort(int lo, int hi) {
    if (hi - lo < 2) { return; }
    int mid = (lo + hi) / 2;
    msort(lo, mid);
    msort(mid, hi);
    int tmp[64];
    int i = lo;
    int j = mid;
    int k = 0;
    while (i < mid && j < hi) {
        if (data[i] <= data[j]) { tmp[k] = data[i]; i++; }
        else { tmp[k] = data[j]; j++; }
        k++;
    }
    while (i < mid) { tmp[k] = data[i]; i++; k++; }
    while (j < hi) { tmp[k] = data[j]; j++; k++; }
    for (int m = 0; m < k; m++) { data[lo + m] = tmp[m]; }
}
int kernel(int seed) {
    for (int i = 0; i < 64; i++) {
        data[i] = (seed * (i + 3)) % 97;
    }
    msort(0, 64);
    int checksum = 0;
    for (int i = 0; i < 64; i++) { checksum = checksum * 3 + data[i]; }
    return checksum;
}`
	u := cparser.MustParse(src)
	st := NewState()
	d := hls.Diagnostic{Subject: "msort", Message: "recursive functions are not supported"}
	applyNamed(t, u, "stack_trans", d, st)

	if len(cast.CallsTo(u.Func("msort"), "msort")) != 0 {
		t.Fatal("msort still recursive")
	}
	orig := cparser.MustParse(src)
	ino, _ := interp.New(orig, interp.Options{})
	inn, err := interp.New(u, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 17, 400} {
		want, _ := ino.CallKernel("kernel", []interp.Value{interp.IntValue(seed)})
		got, err := inn.CallKernel("kernel", []interp.Value{interp.IntValue(seed)})
		if err != nil {
			t.Fatalf("converted msort kernel(%d): %v", seed, err)
		}
		if got.Ret.AsInt() != want.Ret.AsInt() {
			t.Errorf("kernel(%d): converted %d, original %d", seed, got.Ret.AsInt(), want.Ret.AsInt())
		}
		ino.Reset()
		inn.Reset()
	}
}

func TestStackTransUndersizedStackFaults(t *testing.T) {
	// With a tiny stack the converted traversal overflows at runtime —
	// the signal that drives the resize loop (the paper's P3 story).
	u := cparser.MustParse(binaryTreeSrc)
	st := NewState()
	applyNamed(t, u, "insert", hls.Diagnostic{Subject: "malloc"}, st)
	applyNamed(t, u, "pointer", hls.Diagnostic{}, st)
	if err := applyStackTrans(u, "traverse", 2); err != nil {
		t.Fatal(err)
	}
	in, _ := interp.New(u, interp.Options{})
	_, err := in.CallKernel("kernel", []interp.Value{interp.IntValue(20)})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("undersized stack should fault, got %v", err)
	}
}

func TestTypeTransEdit(t *testing.T) {
	u := cparser.MustParse(`
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}`)
	st := NewState()
	applyNamed(t, u, "type_trans", hls.Diagnostic{Message: "long double"}, st)
	if hasLongDouble(u) {
		t.Error("long double persists")
	}
	if !strings.Contains(cast.Print(u), "fpga_float<8,71>") {
		t.Errorf("expected fpga_float in output:\n%s", cast.Print(u))
	}
	// Behaviour identical on the FPGA simulator.
	orig := cparser.MustParse(`
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}`)
	dt := difftest.Run(orig, u, "top", hls.DefaultConfig("top"), []fuzz.TestCase{intTC(41)})
	if !dt.AllPass() {
		t.Errorf("type_trans broke behaviour: %s", dt.FirstDiff)
	}
}

func TestConstructorAndStreamStatic(t *testing.T) {
	src := `
struct If2 {
    hls::stream<unsigned> &in;
    hls::stream<unsigned> &out;
    void do1() {
        while (!in.empty()) { out.write(in.read() + 1); }
    }
};
unsigned top(unsigned v) {
#pragma HLS dataflow
    hls::stream<unsigned> a;
    hls::stream<unsigned> tmp;
    hls::stream<unsigned> b;
    a.write(v);
    If2{ a, tmp }.do1();
    If2{ tmp, b }.do1();
    return b.read();
}`
	u := cparser.MustParse(src)
	st := NewState()
	cfg := hls.DefaultConfig("top")
	pre := check.Run(u, cfg)
	if !pre.HasClass(hls.ClassStructUnion) {
		t.Fatalf("expected struct errors first: %v", pre.Diags)
	}
	applyNamed(t, u, "constructor", hls.Diagnostic{Subject: "If2", Message: "unsynthesizable struct"}, st)
	for _, name := range []string{"a", "tmp", "b"} {
		applyNamed(t, u, "stream_static",
			hls.Diagnostic{Subject: name, Message: "stream must be static"}, st)
	}
	post := check.Run(u, cfg)
	if post.HasClass(hls.ClassStructUnion) {
		t.Errorf("struct errors persist: %v", post.ByClass()[hls.ClassStructUnion])
	}
	// Behaviour check through the simulator.
	orig := cparser.MustParse(src)
	tc := fuzz.TestCase{Args: []fuzz.Arg{{Scalar: true, Ints: []int64{5}, Width: 32, Unsigned: true}}}
	dt := difftest.Run(orig, u, "top", cfg, []fuzz.TestCase{tc})
	if !dt.AllPass() {
		t.Errorf("struct repairs broke behaviour: %s", dt.FirstDiff)
	}
}

func TestFlattenAndInstUpdate(t *testing.T) {
	src := `
struct Adder {
    hls::stream<unsigned> &in;
    hls::stream<unsigned> &out;
    unsigned doRead() {
        return in.read();
    }
    void do1() {
        while (!in.empty()) { out.write(doRead() + 1); }
    }
};
unsigned top(unsigned v) {
    hls::stream<unsigned> a;
    hls::stream<unsigned> b;
    a.write(v);
    Adder{ a, b }.do1();
    return b.read();
}`
	u := cparser.MustParse(src)
	st := NewState()
	applyNamed(t, u, "flatten", hls.Diagnostic{Subject: "Adder", Message: "unsynthesizable struct"}, st)
	applyNamed(t, u, "inst_update", hls.Diagnostic{Subject: "Adder"}, st)

	if u.Func("Adder_do1") == nil || u.Func("Adder_doRead") == nil {
		t.Fatalf("lifted functions missing:\n%s", cast.Print(u))
	}
	if u.StructOf("Adder") != nil {
		t.Error("struct should be removed once unused")
	}
	rep := check.Run(u, hls.DefaultConfig("top"))
	if rep.HasClass(hls.ClassStructUnion) {
		t.Errorf("struct errors persist after flatten path: %v", rep.Diags)
	}
	orig := cparser.MustParse(src)
	tc := fuzz.TestCase{Args: []fuzz.Arg{{Scalar: true, Ints: []int64{9}, Width: 32, Unsigned: true}}}
	dt := difftest.Run(orig, u, "top", hls.DefaultConfig("top"), []fuzz.TestCase{tc})
	if !dt.AllPass() {
		t.Errorf("flatten path broke behaviour: %s", dt.FirstDiff)
	}
}

func TestSegmentBufferEdit(t *testing.T) {
	src := `
void my_func(char data[32], char out[32]) {
    for (int i = 0; i < 32; i++) { out[i] = data[i] + 1; }
}
void top_function(char data[32], char a[32], char b[32]) {
#pragma HLS dataflow
    my_func(data, a);
    my_func(data, b);
}`
	u := cparser.MustParse(src)
	st := NewState()
	applyNamed(t, u, "segment", hls.Diagnostic{Subject: "data", Message: "failed dataflow checking"}, st)
	rep := check.Run(u, hls.DefaultConfig("top_function"))
	if rep.HasClass(hls.ClassDataflow) {
		t.Errorf("dataflow error persists: %v", rep.Diags)
	}
	orig := cparser.MustParse(src)
	mk := func() fuzz.TestCase {
		data := fuzz.Arg{Ints: make([]int64, 32), Width: 8}
		for i := range data.Ints {
			data.Ints[i] = int64(i % 100)
		}
		return fuzz.TestCase{Args: []fuzz.Arg{data,
			{Ints: make([]int64, 32), Width: 8}, {Ints: make([]int64, 32), Width: 8}}}
	}
	dt := difftest.Run(orig, u, "top_function", hls.DefaultConfig("top_function"),
		[]fuzz.TestCase{mk()})
	if !dt.AllPass() {
		t.Errorf("segment broke behaviour: %s", dt.FirstDiff)
	}
}

func TestTopRenameEdit(t *testing.T) {
	u := cparser.MustParse(`
#pragma HLS top name=kern
void kernel(int a[4], int b[4]) {
    for (int i = 0; i < 4; i++) { b[i] = a[i]; }
}`)
	st := NewState()
	applyNamed(t, u, "top_rename", hls.Diagnostic{Subject: "kern", Message: "Cannot find the top function"}, st)
	rep := check.Run(u, hls.DefaultConfig("kernel"))
	if rep.HasClass(hls.ClassTopFunction) {
		t.Errorf("top error persists: %v", rep.Diags)
	}
}

func TestExploreImprovesLatency(t *testing.T) {
	src := `
void kernel(int a[64], int b[64]) {
    for (int i = 0; i < 64; i++) {
        b[i] = a[i] * 3 + 1;
    }
}`
	u := cparser.MustParse(src)
	st := NewState()
	cands := PerfCandidates(u, st)
	if len(cands) == 0 {
		t.Fatal("no performance candidates for a counted loop")
	}
	mk := func() fuzz.TestCase {
		return fuzz.TestCase{Args: []fuzz.Arg{
			{Ints: make([]int64, 64), Width: 32}, {Ints: make([]int64, 64), Width: 32}}}
	}
	orig := cparser.MustParse(src)
	base := difftest.Run(orig, u, "kernel", hls.DefaultConfig("kernel"), []fuzz.TestCase{mk()})
	improved := false
	for _, c := range cands {
		dt := difftest.Run(orig, c.Unit, "kernel", hls.DefaultConfig("kernel"), []fuzz.TestCase{mk()})
		if dt.AllPass() && dt.FPGAMeanCycles < base.FPGAMeanCycles {
			improved = true
			break
		}
	}
	if !improved {
		t.Error("no explore candidate reduced cycles")
	}
}

// TestExploreFactorsDivideTripCount pins the counted-loop trip count
// explore reads for loops that do not start at zero, and that every
// unroll factor it proposes for them divides that count.
func TestExploreFactorsDivideTripCount(t *testing.T) {
	src := `
void kernel(int a[64], int b[8]) {
    for (int i = 1; i <= 64; i++) {
        a[i - 1] = i;
    }
    for (int i = 2; i < 10; i++) {
        b[i - 2] = i;
    }
}`
	want := []int{64, 8}
	u := cparser.MustParse(src)
	for i, l := range loopsOf(u.Func("kernel")) {
		if got := l.TripCount(); got != want[i] {
			t.Errorf("loop %d: TripCount = %d, want %d", i, got, want[i])
		}
	}
	edits := instExplorePragmas(u, hls.Diagnostic{}, NewState())
	if len(edits) == 0 {
		t.Fatal("explore proposed nothing for two counted loops")
	}
	for _, e := range edits {
		c := cast.CloneUnit(u)
		if err := e.Apply(c); err != nil {
			t.Fatalf("%s: %v", e.Note, err)
		}
		for i, l := range loopsOf(c.Func("kernel")) {
			for _, p := range l.Pragmas {
				if d := cast.ParsePragma(p.Text); d.Kind == cast.PragmaUnroll && want[i]%d.Factor != 0 {
					t.Errorf("%s %s: unroll factor %d does not divide trip count %d", e.Target, e.Note, d.Factor, want[i])
				}
			}
		}
	}
}

// loopsOf lists fn's for loops in walk order.
func loopsOf(fn *cast.FuncDecl) []*cast.For {
	var loops []*cast.For
	cast.Inspect(fn, func(n cast.Node) bool {
		if l, ok := n.(*cast.For); ok {
			loops = append(loops, l)
		}
		return true
	})
	return loops
}

func TestDependenceEnumerationOrder(t *testing.T) {
	// For the struct class, chain heads must be constructor and flatten,
	// with stream_static only reachable after constructor — the Figure 7c
	// structure.
	ctor, _ := TemplateByID("constructor")
	if len(ctor.Requires) != 0 {
		t.Error("constructor is a chain head")
	}
	ss, _ := TemplateByID("stream_static")
	if len(ss.Requires) != 1 || ss.Requires[0] != "constructor" {
		t.Errorf("stream_static must require constructor: %v", ss.Requires)
	}
	iu, _ := TemplateByID("inst_update")
	if len(iu.Requires) != 1 || iu.Requires[0] != "flatten" {
		t.Errorf("inst_update must require flatten: %v", iu.Requires)
	}
	fl, _ := TemplateByID("flatten")
	if len(fl.Alternatives) == 0 {
		t.Error("flatten and constructor are alternative branches")
	}
	ptr, _ := TemplateByID("pointer")
	if len(ptr.Requires) != 1 || ptr.Requires[0] != "insert" {
		t.Errorf("pointer must require insert: %v", ptr.Requires)
	}
	tc, _ := TemplateByID("type_casting")
	if len(tc.Requires) != 1 || tc.Requires[0] != "type_trans" {
		t.Errorf("type_casting must require type_trans: %v", tc.Requires)
	}
}

// TestTable2Catalog checks the paper's Table 2: every error class has
// at least one edit template.
func TestTable2Catalog(t *testing.T) {
	perClass := map[hls.ErrorClass]int{}
	for _, tmpl := range Registry() {
		perClass[tmpl.Class]++
	}
	for _, c := range hls.AllClasses() {
		if perClass[c] == 0 {
			t.Errorf("no templates for class %s", c)
		}
	}
}

func TestCandidatesForOrdersByChainLength(t *testing.T) {
	u := cparser.MustParse(binaryTreeSrc)
	st := NewState()
	d := hls.Diagnostic{Subject: "malloc", Class: hls.ClassDynamicData,
		Message: "dynamic memory allocation is not supported"}
	cands := CandidatesFor(u, d, st)
	if len(cands) == 0 {
		t.Fatal("no candidates for malloc diagnostic")
	}
	for i := 1; i < len(cands); i++ {
		if len(cands[i].Edits) < len(cands[i-1].Edits) {
			t.Fatal("candidates not ordered by chain length")
		}
	}
	// The chain {insert, pointer} must be present.
	found := false
	for _, c := range cands {
		if len(c.Edits) == 2 && c.Edits[0].Template == "insert" && c.Edits[1].Template == "pointer" {
			found = true
		}
	}
	if !found {
		t.Error("dependence chain insert->pointer not enumerated")
	}
}
