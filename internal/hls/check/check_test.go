package check

import (
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/hls"
)

func runCheck(t *testing.T, src, top string) hls.Report {
	t.Helper()
	u := cparser.MustParse(src)
	return Run(u, hls.DefaultConfig(top))
}

func wantClass(t *testing.T, r hls.Report, c hls.ErrorClass, keyword string) {
	t.Helper()
	if !r.HasClass(c) {
		t.Fatalf("expected %s diagnostic, got %v", c, r.Diags)
	}
	for _, d := range r.ByClass()[c] {
		if strings.Contains(d.Message, keyword) {
			return
		}
	}
	t.Errorf("no %s diagnostic mentions %q: %v", c, keyword, r.ByClass()[c])
}

func TestCleanDesignPasses(t *testing.T) {
	r := runCheck(t, `
void kernel(int in[16], int out[16]) {
    for (int i = 0; i < 16; i++) {
        out[i] = in[i] * 2;
    }
}`, "kernel")
	if !r.OK {
		t.Errorf("clean design should pass, got %v", r.Diags)
	}
}

func TestMallocDetected(t *testing.T) {
	r := runCheck(t, `
void kernel(int n) {
    int *p = (int *)malloc(n * sizeof(int));
    free(p);
}`, "kernel")
	wantClass(t, r, hls.ClassDynamicData, "dynamic memory allocation")
	// Both malloc and free are flagged.
	if got := len(r.ByClass()[hls.ClassDynamicData]); got < 2 {
		t.Errorf("want >=2 dynamic-data diags, got %d", got)
	}
}

func TestDirectRecursionDetected(t *testing.T) {
	r := runCheck(t, `
void traverse(int n) {
    if (n <= 0) { return; }
    traverse(n - 1);
}
void kernel(int n) { traverse(n); }`, "kernel")
	wantClass(t, r, hls.ClassDynamicData, "recursive functions are not supported")
	found := false
	for _, d := range r.Diags {
		if d.Subject == "traverse" && d.Code == "XFORM 202-876" {
			found = true
		}
	}
	if !found {
		t.Errorf("recursion diagnostic should name traverse with XFORM 202-876: %v", r.Diags)
	}
}

func TestMutualRecursionDetected(t *testing.T) {
	r := runCheck(t, `
void even(int n);
void odd(int n) { if (n > 0) { even(n - 1); } }
void even(int n) { if (n > 0) { odd(n - 1); } }
void kernel(int n) { even(n); }`, "kernel")
	diags := r.ByClass()[hls.ClassDynamicData]
	if len(diags) < 2 {
		t.Errorf("both mutually recursive functions should be flagged: %v", diags)
	}
}

func TestNonRecursiveHelperNotFlagged(t *testing.T) {
	r := runCheck(t, `
int helper(int x) { return x * 2; }
void kernel(int in[8], int out[8]) {
    for (int i = 0; i < 8; i++) { out[i] = helper(in[i]); }
}`, "kernel")
	if r.HasClass(hls.ClassDynamicData) {
		t.Errorf("false recursion positive: %v", r.Diags)
	}
}

func TestUnknownSizeArray(t *testing.T) {
	r := runCheck(t, `
void kernel(int cols) {
    int line_buf_a[cols];
    line_buf_a[0] = 1;
}`, "kernel")
	wantClass(t, r, hls.ClassDynamicData, "unknown size")
	found := false
	for _, d := range r.Diags {
		if d.Code == "SYNCHK 200-61" && d.Subject == "line_buf_a" {
			found = true
		}
	}
	if !found {
		t.Errorf("SYNCHK 200-61 for line_buf_a expected: %v", r.Diags)
	}
}

func TestLongDoubleDetected(t *testing.T) {
	r := runCheck(t, `
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}`, "top")
	wantClass(t, r, hls.ClassUnsupportedType, "long double")
}

func TestPointerLocalsFlagged(t *testing.T) {
	r := runCheck(t, `
struct Node { int v; };
struct Node pool[16];
void kernel(int idx) {
    struct Node *p = &pool[0];
    p->v = idx;
}`, "kernel")
	wantClass(t, r, hls.ClassUnsupportedType, "pointer")
}

func TestTopParamPointersAllowed(t *testing.T) {
	r := runCheck(t, `
void kernel(float *in, float *out) {
    out[0] = in[0] * 2;
}`, "kernel")
	if r.HasClass(hls.ClassUnsupportedType) {
		t.Errorf("interface pointers on the top function are allowed: %v", r.Diags)
	}
}

func TestPointerStructFieldFlagged(t *testing.T) {
	r := runCheck(t, `
struct Node { int val; struct Node *left; };
struct Node pool[8];
void kernel(int i) { pool[i].val = i; }`, "kernel")
	wantClass(t, r, hls.ClassUnsupportedType, "pointer field")
}

func TestMissingTopFunction(t *testing.T) {
	r := runCheck(t, `void other() { }`, "kernel")
	wantClass(t, r, hls.ClassTopFunction, "Cannot find the top function")
}

func TestTopPragmaMismatch(t *testing.T) {
	r := runCheck(t, `
#pragma HLS top name=kern
void kernel(int in[4], int out[4]) {
    for (int i = 0; i < 4; i++) { out[i] = in[i]; }
}`, "kernel")
	wantClass(t, r, hls.ClassTopFunction, "kern")
}

func TestDataflowDoubleConsumer(t *testing.T) {
	r := runCheck(t, `
void my_func(char data[128], char out[128]) {
    for (int i = 0; i < 128; i++) { out[i] = data[i]; }
}
void top_function(char data[128], char a[128], char b[128]) {
#pragma HLS dataflow
    my_func(data, a);
    my_func(data, b);
}`, "top_function")
	wantClass(t, r, hls.ClassDataflow, "failed dataflow checking")
}

// TestDataflowDiagnosticOrderIsStable: a region with six over-consumed
// buffers reports them in one order on every run. The repair search
// builds its candidates in diagnostic order, so any other order would
// change which buffer it splits first.
func TestDataflowDiagnosticOrderIsStable(t *testing.T) {
	const src = `
void f(int d[16], int o[16]) {
    for (int i = 0; i < 16; i++) { o[i] = d[i] + 1; }
}
void kernel(int a[16], int b[16], int c[16], int e[16], int x[16], int y[16]) {
#pragma HLS dataflow
    f(a, x); f(a, y); f(b, c); f(b, e); f(c, e); f(x, y);
}`
	order := func() string {
		var subjects []string
		for _, d := range runCheck(t, src, "kernel").Diags {
			subjects = append(subjects, d.Subject)
		}
		return strings.Join(subjects, ",")
	}
	first := order()
	if strings.Count(first, ",") != 5 {
		t.Fatalf("want six over-consumed buffers, got %q", first)
	}
	for i := 0; i < 50; i++ {
		if got := order(); got != first {
			t.Fatalf("diagnostic order moved between runs: %q then %q", first, got)
		}
	}
}

func TestDataflowSegmentedDataPasses(t *testing.T) {
	r := runCheck(t, `
void my_func(char data[64], char out[64]) {
    for (int i = 0; i < 64; i++) { out[i] = data[i]; }
}
void top_function(char d1[64], char d2[64], char a[64], char b[64]) {
#pragma HLS dataflow
    my_func(d1, a);
    my_func(d2, b);
}`, "top_function")
	if r.HasClass(hls.ClassDataflow) {
		t.Errorf("segmented buffers should pass dataflow checking: %v", r.Diags)
	}
}

func TestPartitionFactorMustDivide(t *testing.T) {
	// The paper's example: 13 elements with factor 4.
	r := runCheck(t, `
void kernel(int x) {
    int A[13];
#pragma HLS array_partition variable=A factor=4
    for (int i = 0; i < 13; i++) { A[i] = x; }
}`, "kernel")
	wantClass(t, r, hls.ClassLoopParallel, "not a multiple")
}

func TestPartitionFactorDividesPasses(t *testing.T) {
	r := runCheck(t, `
void kernel(int A[16]) {
#pragma HLS array_partition variable=A factor=4
    for (int i = 0; i < 16; i++) { A[i] = i; }
}`, "kernel")
	if !r.OK {
		t.Errorf("divisible partition should pass: %v", r.Diags)
	}
}

func TestUnrollFiftyWithDataflowFails(t *testing.T) {
	// Post 721719: unroll factor >= 50 under dataflow fails pre-synthesis.
	r := runCheck(t, `
void kernel(int a[100], int b[100]) {
#pragma HLS dataflow
    for (int i = 0; i < 100; i++) {
#pragma HLS unroll factor=50
        b[i] = a[i];
    }
}`, "kernel")
	wantClass(t, r, hls.ClassLoopParallel, "Pre-synthesis failed")
}

func TestUnrollSmallFactorPasses(t *testing.T) {
	r := runCheck(t, `
void kernel(int a[100], int b[100]) {
    for (int i = 0; i < 100; i++) {
#pragma HLS unroll factor=4
        b[i] = a[i];
    }
}`, "kernel")
	if !r.OK {
		t.Errorf("unroll 4 over 100 iterations should pass: %v", r.Diags)
	}
}

func TestUnrollExceedsTripCount(t *testing.T) {
	r := runCheck(t, `
void kernel(int a[8], int b[8]) {
    for (int i = 0; i < 8; i++) {
#pragma HLS unroll factor=16
        b[i] = a[i];
    }
}`, "kernel")
	wantClass(t, r, hls.ClassLoopParallel, "exceeds the loop trip count")
}

func TestStructTemporaryNeedsCtor(t *testing.T) {
	src := `
struct If2 {
    hls::stream<unsigned> &in;
    hls::stream<unsigned> &out;
    void do1() { out.write(in.read()); }
};
void top(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
#pragma HLS dataflow
    hls::stream<unsigned> tmp;
    If2{ in, tmp }.do1();
    If2{ tmp, out }.do1();
}`
	r := runCheck(t, src, "top")
	wantClass(t, r, hls.ClassStructUnion, "unsynthesizable struct type")
	wantClass(t, r, hls.ClassStructUnion, "must be static")
}

func TestRepairedStructPasses(t *testing.T) {
	// Figure 5b: constructor added, stream made static.
	src := `
struct If2 {
    hls::stream<unsigned> &in;
    hls::stream<unsigned> &out;
    If2(hls::stream<unsigned> &i, hls::stream<unsigned> &o) : in(i), out(o) {}
    void do1() { out.write(in.read()); }
};
void top(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
#pragma HLS dataflow
    static hls::stream<unsigned> tmp;
    If2{ in, tmp }.do1();
    If2{ tmp, out }.do1();
}`
	r := runCheck(t, src, "top")
	if r.HasClass(hls.ClassStructUnion) {
		t.Errorf("repaired struct should pass: %v", r.ByClass()[hls.ClassStructUnion])
	}
}

func TestDiagnosticFormat(t *testing.T) {
	d := hls.Diagnostic{Code: "XFORM 202-876", Message: "Synthesizability check failed"}
	if got := d.Error(); got != "ERROR: [XFORM 202-876] Synthesizability check failed" {
		t.Errorf("format %q", got)
	}
}

func TestReportGrouping(t *testing.T) {
	r := runCheck(t, `
void traverse(int n) { if (n > 0) { traverse(n - 1); } }
void kernel(int n) {
    long double d = n;
    traverse((int)d);
}`, "kernel")
	by := r.ByClass()
	if len(by[hls.ClassDynamicData]) == 0 || len(by[hls.ClassUnsupportedType]) == 0 {
		t.Errorf("expected two classes, got %v", by)
	}
}

// TestTable1Catalog checks the paper's Table 1: each error class's
// canonical snippet produces a diagnostic of that class.
func TestTable1Catalog(t *testing.T) {
	snippets := map[hls.ErrorClass]string{
		hls.ClassDynamicData: `
void kernel(int cols) { int line_buf_a[cols]; line_buf_a[0] = 1; }`,
		hls.ClassUnsupportedType: `
int kernel(int x) { long double d = x; return (int)d; }`,
		hls.ClassDataflow: `
void my_func(char d[128], char o[128]) { for (int i = 0; i < 128; i++) { o[i] = d[i]; } }
void kernel(char data[128], char a[128], char b[128]) {
#pragma HLS dataflow
    my_func(data, a);
    my_func(data, b);
}`,
		hls.ClassLoopParallel: `
void kernel(int a[100]) {
#pragma HLS dataflow
    for (int i = 0; i < 100; i++) {
#pragma HLS unroll factor=50
        a[i] = i;
    }
}`,
		hls.ClassStructUnion: `
struct If2 {
    hls::stream<unsigned> &in;
    hls::stream<unsigned> &out;
    void do1() { out.write(in.read()); }
};
void kernel(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
#pragma HLS dataflow
    hls::stream<unsigned> tmp;
    If2{ in, tmp }.do1();
    If2{ tmp, out }.do1();
}`,
		hls.ClassTopFunction: `
void other() { }`,
	}
	for _, class := range hls.AllClasses() {
		src, ok := snippets[class]
		if !ok {
			t.Errorf("class %s has no Table 1 snippet", class)
			continue
		}
		if rep := runCheck(t, src, "kernel"); !rep.HasClass(class) {
			t.Errorf("%s snippet not diagnosed as its class: %v", class, rep.Diags)
		}
	}
}
