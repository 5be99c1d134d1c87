package interp_test

import (
	"fmt"
	"testing"

	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/interp"
)

// edgeCases are hand-written programs for the constructs the generated
// belt never produces: struct methods and constructors, static locals,
// declarations in conditional non-block positions, global initializers,
// and variable-length arrays with runtime inner dimensions. Each runs
// kernel f on every argument tuple, in CPU and FPGA mode, with the
// default budget and with edgeTightSteps.
var edgeCases = []struct {
	name string
	src  string
	args [][]int64
}{
	{name: "method on temporary", args: [][]int64{{6}}, src: `
int g[4];
struct Stage {
    int threshold;
    int weight;
    int eval(int x) {
        int s = x * weight + g[x % 4];
        if (s > threshold) { return 1; }
        return 0;
    }
};
int f(int n) {
    int hits = 0;
    for (int i = 0; i < n; i++) {
        g[i % 4] = i;
        hits += Stage{ 5, 3 }.eval(i) * 10 + Stage{ 12, 2 }.eval(i);
    }
    return hits;
}`},
	{name: "method mutates receiver", args: [][]int64{{0}, {5}}, src: `
struct Acc {
    int total;
    int count;
    void add(int v) { total += v; count++; }
    int mean() {
        if (count == 0) { return 0; }
        return total / count;
    }
};
int f(int n) {
    struct Acc a;
    a.total = 0;
    a.count = 0;
    for (int i = 0; i < n; i++) { a.add(i * 3); }
    return a.mean() * 100 + a.count;
}`},
	{name: "sibling method and shadowing", args: [][]int64{{4}}, src: `
struct P {
    int x;
    int y;
    int sq(int v) { return v * v; }
    int norm() { return sq(x) + sq(y); }
    int shadow(int x) { return x + y; }
};
int sq(int v) { return -v; }
int f(int n) {
    struct P p;
    p.x = n;
    p.y = n + 1;
    return p.norm() * 10 + p.shadow(2) + sq(3);
}`},
	{name: "receivers in arrays and members", args: [][]int64{{2}}, src: `
struct C {
    int v;
    int get() { return v; }
    void set(int w) { v = w; }
};
struct H { struct C c; int k; };
int f(int n) {
    struct C cs[3];
    for (int i = 0; i < 3; i++) { cs[i].set(i + n); }
    struct H h;
    h.c.set(7);
    return cs[0].get() + cs[2].get() * 10 + h.c.get() * 100;
}`},
	{name: "receiver out of bounds", args: [][]int64{{3}}, src: `
struct C {
    int v;
    int get() { return v; }
};
int f(int n) {
    struct C cs[3];
    return cs[n].get();
}`},
	{name: "method on pointer", args: [][]int64{{1}}, src: `
struct C {
    int v;
    int get() { return v; }
};
int f(int n) {
    struct C c;
    c.v = n;
    struct C *p = &c;
    return p->get();
}`},
	{name: "method on a call result", args: [][]int64{{1}}, src: `
struct C {
    int v;
    int get() { return v; }
};
struct C mk(int v) {
    struct C c;
    c.v = v;
    return c;
}
int f(int n) {
    return mk(n).get();
}`},
	{name: "unknown method", args: [][]int64{{1}}, src: `
struct C {
    int v;
    int get() { return v; }
};
int f(int n) {
    struct C c;
    c.v = n;
    return c.put();
}`},
	{name: "method arity", args: [][]int64{{1}}, src: `
struct C {
    int v;
    int add(int a, int b) { return v + a + b; }
};
int f(int n) {
    struct C c;
    c.v = n;
    return c.add(n);
}`},
	{name: "method called as a function", args: [][]int64{{1}}, src: `
struct C {
    int v;
    int get() { return 5; }
    int peek() { return v; }
};
int f(int n) {
    return get() + peek();
}`},
	{name: "recursive method", args: [][]int64{{5}, {300}}, src: `
struct R {
    int base;
    int sum(int k) {
        if (k <= 0) { return base; }
        return k + sum(k - 1);
    }
};
int f(int n) {
    return R{ 7 }.sum(n);
}`},
	{name: "method statics and profiles", args: [][]int64{{4}}, src: `
struct T {
    int w;
    int tick(int v) {
        static int calls = 0;
        calls++;
        int scaled = v * w;
        w = w + 1;
        return scaled + calls;
    }
};
int tick(int v) {
    static int calls = 100;
    calls++;
    return calls;
}
int f(int n) {
    struct T t;
    t.w = 2;
    int s = 0;
    for (int i = 0; i < n; i++) { s += t.tick(i) + tick(i); }
    return s;
}`},
	{name: "constructors", args: [][]int64{{4}}, src: `
struct K {
    int a;
    int b;
    K(int x, int y) : a(x * 2), b(y) {}
    int sum() { return a + b; }
};
struct L { int a; int b; };
int f(int n) {
    struct K k = {n, 3};
    struct L l = {n, n + 1, n + 2};
    struct K partial = {n};
    int t = K{ 1, n }.sum();
    return k.sum() * 1000 + t * 100 + l.b * 10 + partial.a;
}`},
	{name: "streams in struct fields", args: [][]int64{{5}}, src: `
struct If2 {
    hls::stream<unsigned> &in;
    hls::stream<unsigned> &out;
    If2(hls::stream<unsigned> &i, hls::stream<unsigned> &o) : in(i), out(o) {}
    void do1() {
        while (!in.empty()) {
            out.write(in.read() + 1);
        }
    }
};
unsigned f(unsigned v) {
    hls::stream<unsigned> a;
    hls::stream<unsigned> b;
    hls::stream<unsigned> c;
    a.write(v);
    a.write(v + 10);
    If2{ a, b }.do1();
    If2{ b, c }.do1();
    unsigned r = c.read();
    unsigned r2 = c.read();
    return r * 1000 + r2;
}`},
	{name: "static counter", args: [][]int64{{4}}, src: `
int next() {
    static int c = 10;
    c++;
    return c;
}
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s = s * 3 + next(); }
    return s;
}`},
	{name: "static array and initializer", args: [][]int64{{3}}, src: `
int acc(int v) {
    static int hist[4] = {1, 2};
    static int first = v * 2;
    static int unset;
    hist[v % 4] += first + unset;
    unset++;
    return hist[0] + hist[1] + hist[2] + hist[3];
}
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += acc(i + n); }
    return s;
}`},
	{name: "static shared by name", args: [][]int64{{3}, {-2}}, src: `
int g2(int k) {
    int r = 0;
    if (k > 0) {
        static int s = 1;
        s += k;
        r = s;
    } else {
        static int s = 100;
        s -= 1;
        r = s;
    }
    return r;
}
int f(int n) {
    return g2(n) * 1000 + g2(-n) + g2(n);
}`},
	{name: "static in recursion", args: [][]int64{{4}}, src: `
int rec(int k) {
    static int depth = 0;
    depth++;
    if (k > 0) { return rec(k - 1); }
    return depth;
}
int f(int n) { return rec(n) * 10 + rec(1); }`},
	{name: "static sized at runtime", args: [][]int64{{3}}, src: `
int f(int n) {
    static int a[n];
    return 1;
}`},
	{name: "declaration as a branch", args: [][]int64{{1}, {5}}, src: `
int y = 100;
int f(int n) {
    if (n > 2) int y = n * 2;
    int r = y;
    if (n > 2) int z = 1; else int z = 2;
    return r * 10 + z;
}`},
	{name: "declaration as an untaken branch", args: [][]int64{{1}, {5}}, src: `
int f(int n) {
    if (n > 2) int w = n * 2;
    return w;
}`},
	{name: "declaration cleared per block", args: [][]int64{{1}, {9}}, src: `
int f(int n) {
    int s = 0;
    int v = 1;
    for (int i = 0; i < 4; i++) {
        if (i == n) int v = 50;
        s += v;
    }
    return s;
}`},
	{name: "declaration as a loop body", args: [][]int64{{3}, {0}}, src: `
int f(int n) {
    int t = 9;
    int k = 0;
    for (int i = 0; i < n; i++) int t = i * 2;
    while (k < n) int w = k++;
    return t * 100 + w;
}`},
	{name: "array declaration as a branch", args: [][]int64{{0}, {1}}, src: `
int f(int n) {
    int arr[2];
    arr[0] = 1;
    arr[1] = 2;
    if (n > 0) int arr[3];
    arr[1] = 7;
    return arr[1] + sizeof(arr) * 10 + arr[0] * 1000;
}`},
	{name: "declaration of another type", args: [][]int64{{0}, {1}}, src: `
int f(int n) {
    int y = 3;
    if (n) double y = 2.5;
    return y * 2;
}`},
	{name: "declaration in switch arms", args: [][]int64{{0}, {1}, {2}}, src: `
int f(int n) {
    int r = 0;
    switch (n % 3) {
    case 0:
        int q = 5;
        r = q;
    case 1:
        r = r + q;
        break;
    default:
        r = -1;
    }
    return r;
}`},
	{name: "declaration in switch arms with outer", args: [][]int64{{0}, {1}}, src: `
int f(int n) {
    int q = 1;
    int r = 0;
    switch (n % 3) {
    case 0:
        int q = 5;
        r = q;
    case 1:
        r = r + q;
        break;
    }
    return r + q;
}`},
	{name: "global initializers", args: [][]int64{{2}}, src: `
int a = 3;
int b = a * 4 + 1;
double c = b / 2.0;
int t[5] = {a, b, a + b};
int m[2][3] = {{1, 2, 3}, {4, 5, 6}};
struct S { int x; int y; };
struct S s = {b, 7};
int sz = sizeof(m) + sizeof(s);
int f(int n) {
    a = a + n;
    return a + b + t[2] + m[1][2] * 10 + s.x * 100 + s.y + (int)c + sz;
}`},
	{name: "global initializer calls", args: [][]int64{{2}}, src: `
int sq(int v) { return v * v; }
int h = 1;
int g = sq(5) + (h = 4);
int f(int n) { return g + h * n; }`},
	{name: "global initializer constructor", args: [][]int64{{2}}, src: `
struct K {
    int a;
    int b;
    K(int x, int y) : a(x * 2), b(y) {}
    int sum() { return a + b; }
};
struct K gk = {2, 3};
int f(int n) { return gk.sum() + n; }`},
	{name: "global initializer exhausts the budget", args: [][]int64{{2}}, src: `
int slow(int k) {
    int s = 0;
    for (int i = 0; i < k; i++) { s += i; }
    return s;
}
int g = slow(12);
int f(int n) { return g + n; }`},
	{name: "global initializer reads a later global", args: [][]int64{{2}}, src: `
int a = b + 1;
int b = 2;
int f(int n) { return a + n; }`},
	{name: "global redeclared", args: [][]int64{{2}}, src: `
int g = 1;
int g = g + 5;
int f(int n) { return g + n; }`},
	{name: "global initializer faults", args: [][]int64{{2}}, src: `
int t[2] = {1, 2};
int g = t[5];
int f(int n) { return g + n; }`},
	{name: "dynamic inner dimension", args: [][]int64{{3}, {0}}, src: `
int sum(int *p, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += p[i]; }
    return s;
}
int f(int n) {
    int a[4][n];
    int m[n][n];
    int k[2][n][3];
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < n; j++) { a[i][j] = i * 10 + j; }
    }
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) { m[i][j] = i - j; }
    }
    k[1][n - 1][2] = 9;
    return a[3][n - 1] * 1000 + sum(a[2], n) * 10 + m[n - 1][0] + k[1][n - 1][2];
}`},
	{name: "sizeof of runtime-sized expressions", args: [][]int64{{3}}, src: `
int f(int n) {
    int a[4][n];
    int m[n][n + 1];
    return sizeof(a[1]) * 10000 + sizeof(m[0]) * 100 + sizeof(*m) + sizeof(a[0][0]);
}`},
	{name: "loop local address kept across iterations", args: [][]int64{{0}, {4}}, src: `
int f(int n) {
    int *keep[8];
    int *last = 0;
    for (int i = 0; i < n; i++) {
        int v = i * 3 + 1;
        keep[i] = &v;
        if (last != 0) { *last = *last + 100; }
        last = &v;
    }
    int s = 0;
    for (int i = 0; i < n; i++) { s = s * 10 + *keep[i]; }
    return s;
}`},
	{name: "scalar bound to a reference parameter", args: [][]int64{{3}}, src: `
void bump(int &r, int by) {
    r = r + by;
    r++;
}
int f(int n) {
    int x = n;
    for (int i = 0; i < 3; i++) {
        int y = i;
        bump(y, n);
        bump(x, y);
        x = x + y;
    }
    return x;
}`},
	{name: "address of a scalar parameter", args: [][]int64{{2}, {-5}}, src: `
void twice(int *p) { *p = *p * 2; }
int g(int a, int b) {
    int *q = &a;
    twice(q);
    twice(&b);
    a += 1;
    return a * 100 + b;
}
int f(int n) {
    int t = 0;
    for (int i = 0; i < 2; i++) { t += g(n + i, i - n); }
    return t;
}`},
	{name: "static local in a loop", args: [][]int64{{3}}, src: `
int tick(int k) {
    static int calls = 0;
    calls = calls + k;
    return calls;
}
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        static int seen = 10;
        seen++;
        int local = seen;
        s += local + tick(i);
    }
    return s;
}`},
	{name: "struct local method in a loop", args: [][]int64{{4}}, src: `
struct Win {
    int sum;
    int n;
    void push(int v) { sum += v; n++; }
    int avg() { return n == 0 ? 0 : sum / n; }
};
int f(int n) {
    int r = 0;
    for (int i = 0; i < n; i++) {
        struct Win w;
        w.sum = i;
        w.n = 1;
        for (int j = 0; j < i; j++) { w.push(j * 2); }
        r = r * 10 + w.avg();
    }
    return r;
}`},
	{name: "shadowed locals in nested scopes", args: [][]int64{{3}}, src: `
int f(int n) {
    int x = n;
    int acc = 0;
    for (int i = 0; i < n; i++) {
        int x = i * 7;
        {
            int x = -i;
            acc += x;
            x++;
            acc += x;
        }
        acc += x;
        x -= 2;
        acc = acc * 2 + x;
    }
    {
        unsigned char x = 250;
        x += 10;
        acc += x;
    }
    return acc + x;
}`},
}

// edgeTightSteps is a budget that cuts most edge cases off mid-run.
const edgeTightSteps = 60

// TestEdgeOutcomes holds edgeCases to the tree walker's outcomes
// recorded in testdata/golden/edge.txt.
func TestEdgeOutcomes(t *testing.T) {
	golden := loadOutcomes(t, "edge.txt")
	code := interp.NewCodebase()
	for _, c := range edgeCases {
		t.Run(c.name, func(t *testing.T) {
			u := cparser.MustParse(c.src)
			for _, args := range c.args {
				vals := func() []interp.Value {
					out := make([]interp.Value, len(args))
					for i, a := range args {
						out[i] = interp.IntValue(a)
					}
					return out
				}
				for _, r := range beltRuns {
					maxSteps := r.maxSteps
					if maxSteps != 0 {
						maxSteps = edgeTightSteps
					}
					opts := beltOptions(r.mode, maxSteps)
					opts.Code = code
					key := fmt.Sprintf("%s/%v/%s/%d", c.name, args, modeName(r.mode), maxSteps)
					golden.check(t, key, diffOutcome(u, "f", vals(), opts))
				}
			}
		})
	}
}
