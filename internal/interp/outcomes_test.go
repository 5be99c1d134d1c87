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
	{name: "mixed integer carriers", args: [][]int64{{3}, {-7}, {100}}, src: `
int f(int n) {
    fpga_int<12> a = n * 300;
    fpga_uint<12> b = n * 700 - 5;
    char c = n * 50;
    bool t = n;
    unsigned char uc = 250 + n;
    short s = -n * 1000;
    long big = n;
    big = big << 40;
    int r = a + b * c - t;
    r = r ^ (uc * s);
    int q = (a * b) >> 3;
    q += (c - uc) * t;
    unsigned int u = a - b;
    int k = 'a' + c + true + (n > 0 ? c : s);
    int casts = (fpga_uint<4>)(n * 7) + (bool)(n - 3) * 10 + (char)(n * 40) + (int)(2.7 * n);
    unsigned wide = (unsigned)(-n);
    return r + q + (u >> 28) + (big >> 38) + (t + t) * 7 - (s < uc) + (a == b) + k + casts + (wide >> 20);
}`},
	{name: "unsigned shift and equal-width promotion", args: [][]int64{{-7}, {9}}, src: `
long f(int n) {
    unsigned u = n;
    fpga_uint<8> w = n;
    int s = n;
    unsigned long ul = n;
    long l = n;
    unsigned r1 = u >> 3;
    int r2 = s >> 3;
    int r3 = (u + s) >> 30;
    int r4 = w >> 1;
    long r5 = (w - 300) >> 60;
    long r6 = (ul + l) >> 62;
    long r7 = (l - ul) >> 1;
    int lt = (s < u) + (l < ul) * 2 + (w > s) * 4 + ((u - s) == 0) * 8;
    u >>= 2;
    w >>= 3;
    return r1 + r2 * 3 + r3 * 5 + r4 * 7 + r5 + r6 * 11 + (r7 >> 40) + lt * 1000 + u + w;
}`},
	{name: "shift by the left operand's signedness", args: [][]int64{{-7}, {5}}, src: `
long f(int n) {
    int s = n;
    unsigned u = n;
    fpga_uint<8> w = n;
    char c = n;
    long l = n;
    unsigned long ul = n;
    long a1 = s >> u;
    long a2 = w >> 1;
    long a3 = c >> (ul & 3);
    long a4 = (s + c) >> (w & 7);
    long a5 = (u * 3) >> (l & 15);
    long a6 = l >> (s & 5);
    long a7 = ul >> (u & 9);
    long a8 = (ul - 1) >> 63;
    return a1 + a2 / 1000 + a3 + a4 + a5 + a6 + a7 + a8;
}`},
	{name: "negation in a narrow carrier and mixed ?: arms", args: [][]int64{{3}, {-1}, {-64}}, src: `
long f(int n) {
    fpga_uint<3> u = n;
    fpga_int<7> s = n;
    unsigned char c = n;
    long l = n;
    l = l * 1000000;
    int i = n;
    long r1 = -u;
    long r2 = -s;
    long r3 = -c + ~c;
    long r4 = (n > 0 ? i : l) * 3000000000;
    long r5 = (n > 0 ? c : u) - 10;
    long r6 = (n < 0 ? s : i) * 100000000;
    return r1 + r2 * 10 + r3 * 100 + r4 + r5 * 7 + r6;
}`},
	{name: "truth of floats and pointers", args: [][]int64{{0}, {1}, {2}}, src: `
int f(int n) {
    int a[4];
    int *p = a;
    int *q = 0;
    double h = n * 0.25;
    float z = 0.0;
    int r = 0;
    if (h) r += 1;
    if (p) r += 2;
    if (q) r += 4;
    if (!h) r += 8;
    if (!q) r += 16;
    r += (h && p) * 32 + (q || h) * 64 + (z || q) * 128;
    r += (h ? 256 : 512) + (q ? 1024 : 2048);
    bool b = h;
    r += b * 4096 + (bool)p * 8192 + (bool)z * 16384;
    int k = 0;
    while (p && k < n) { k++; }
    for (int j = 0; h; j++) { h = h - 0.25; r++; }
    return r + k * 100000;
}`},
	{name: "compound assignment carriers", args: [][]int64{{3}, {-9}}, src: `
long f(int n) {
    long acc = n;
    acc <<= 36;
    acc += n;
    acc *= 3;
    unsigned long ua = n;
    ua -= 5;
    ua >>= 3;
    char c = n;
    c += 300;
    c *= n;
    fpga_int<9> w = n;
    w += 260;
    w <<= 2;
    int i = n;
    i -= 2147483647;
    i *= 4;
    i += 0.75 * n;
    unsigned u = n;
    u += 4294967290;
    u >>= 1;
    u %= n + 20;
    return acc + ua % 1000 + c + w + i + u;
}`},
	{name: "short-circuit costs", args: [][]int64{{0}, {3}}, src: `
int g(int k) { return k * 2; }
int f(int n) {
    int hits = 0;
    for (int i = 0; i < 6; i++) {
        if (i > n && g(i) > 4) hits += 1;
        if (i < n || g(i) < 0) hits += 10;
        hits += (i & 1) && (n > 2);
        hits += !(i == n) || !n;
        hits += (i ? n : i) > 2;
        int z = (n && i) + (n || i) * 2 + !i * 4;
        hits = hits * 2 + z;
    }
    return hits;
}`},
	{name: "division by zero inside a nested expression", args: [][]int64{{5, 3}, {5, 1}, {5, -1}, {4, 2}}, src: `
int f(int n, int d) {
    int a = n * 3 + 1;
    int r = (a + 2) * ((a - 1) / (d - 1)) + 5;
    r = r - (a * 2) % (d * d - 1 + (n & 0));
    r %= (d - 2) * n;
    return r;
}`},
	{name: "budget inside a nested expression", args: [][]int64{{1}, {2}, {40}}, src: `
int f(int n) {
    int x = n;
    int y = n + 1;
    int r = 0;
    for (int i = 0; i < n; i++) {
        r = ((x + y) * (x - y) + (x * 3 - y * 2)) * ((x ^ y) + (x & 7) - (y | 1))
            + (((x << 2) >> 1) - ((y % 5) + (x / 3))) + ((r + i) * (r - i) - ((x + 1) * (y + 2))) % 1000;
        x = (x * 5 + r) % 977;
        y = y + (x > r && r > 0 || i == 2);
    }
    return r + x + y;
}`},
	{name: "CPU and FPGA wrapping", args: [][]int64{{7}, {-3}, {100}}, src: `
int f(int n) {
    int m = n * 65536;
    int sq = m * m;
    long wide = (long)m * m;
    fpga_int<7> s = n * 9;
    fpga_int<7> t = s * s;
    fpga_uint<3> u = n;
    u++;
    u += 7;
    ++u;
    s--;
    int neg = -s + ~u;
    unsigned char c = 255;
    c = c + n;
    c++;
    bool b = n;
    b++;
    b += 2;
    int carry = (m * m) >> 31;
    int hi = (s * 1000000) * 5000;
    return sq + (wide >> 32) + t + u * 100 + neg * 1000 + c + b * 7 + carry + (hi >> 8);
}`},
	{name: "typed index and switch", args: [][]int64{{1}, {2}, {5}}, src: `
int f(int n) {
    int a[8];
    for (int i = 0; i < 8; i++) { a[i * 3 % 8] = i + n; }
    char c = 'a' + n;
    int s = 0;
    switch (c - 1) {
    case 'a': s = 1; break;
    case 'b': s = a[n * 2 - 1]; break;
    default: s = a[(unsigned char)(n + 250)];
    }
    for (int j = 0; j < 4; j++) { s += a[a[j] % 8] * (j + 1); }
    return s;
}`},
	{name: "integer element arrays", args: [][]int64{{3}, {-7}, {100}}, src: `
long f(int n) {
    char c[4];
    unsigned u[4];
    bool b[4];
    fpga_int<6> s[4];
    fpga_uint<5> w[4];
    for (int i = 0; i < 4; i++) {
        c[i] = n * 40 + i;
        u[i] = n - i;
        b[i] = n & i;
        s[i] = n * 9 + i;
        w[i] = n * 11 - i;
    }
    c[1] += 200;
    u[2] *= n;
    b[3] += 2;
    s[0] -= 50;
    w[1] <<= 3;
    c[2]++;
    --u[3];
    b[0]--;
    s[2]++;
    w[3]--;
    long r = 0;
    for (int i = 0; i < 4; i++) {
        r = r * 7 + c[i] + (u[i] >> 28) + b[i] * 3 + s[i] * 5 + w[i];
        r += (c[i] < s[i]) + (u[i] > w[i]) * 2;
    }
    return r + c[0] * u[1] + (s[1] >> 2) + (w[2] >> 1) + !b[1];
}`},
	{name: "two-dimensional element array", args: [][]int64{{2}, {5}}, src: `
int f(int n) {
    int m[3][4];
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 4; j++) { m[i][j] = i * n + j; }
    }
    m[1][2] += m[2][3] * 2;
    m[2][0]++;
    int s = 0;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 4; j++) { s = s * 3 + m[i][j]; }
    }
    return s + m[n % 3][n % 4];
}`},
	{name: "global element arrays", args: [][]int64{{2}, {7}}, src: `
int g[6];
unsigned char h[3] = {250, 5, 7};
int f(int n) {
    for (int i = 0; i < 6; i++) { g[i] = g[i] + i * n; }
    h[0] += n;
    h[1] = h[0] * 3;
    g[n % 6] -= h[2]++;
    return g[0] + g[1] * 10 + g[5] * 100 + h[0] + h[1] * 1000 + h[2];
}`},
	{name: "pointer parameter passed p + 1", args: [][]int64{{3}, {9}}, src: `
int fill(int *p, int k) {
    for (int i = 0; i < k; i++) { p[i] = p[i - 1] + i; }
    p[k - 1] *= 2;
    return p[0] + p[-1];
}
int f(int n) {
    int a[6];
    a[0] = n;
    int r = fill(a + 1, 4);
    int *q = a + 2;
    q[1]++;
    if (n > 4) { r += fill(a + 3, n); }
    return r * 1000 + a[1] + a[2] * 10 + a[3] * 100 + a[4] + a[5] + q[-2];
}`},
	{name: "element increments that wrap", args: [][]int64{{1}, {-4}}, src: `
int f(int n) {
    unsigned char c[2];
    fpga_int<4> s[2];
    fpga_uint<3> w[2];
    int big[2];
    c[0] = 255;
    c[1] = 0;
    s[0] = 7;
    s[1] = -8;
    w[0] = 7;
    w[1] = 0;
    big[0] = 2147483647;
    big[1] = n;
    c[0]++;
    c[1]--;
    s[0]++;
    s[1]--;
    w[0]++;
    --w[1];
    int o = big[0]++;
    ++big[0];
    int p = c[0]++ + s[0]-- + w[0]++ + --big[1];
    return c[0] + c[1] * 10 + s[0] * 100 + s[1] * 1000 + w[0] + w[1] * 7 + big[0] + o + p;
}`},
	{name: "element division by zero inside a nested expression", args: [][]int64{{5, 3}, {5, 1}, {5, -1}, {4, 2}}, src: `
int f(int n, int d) {
    int a[4];
    for (int i = 0; i < 4; i++) { a[i] = n * i + d; }
    int r = (a[1] + 2) * (a[2] - (a[3] /= (d - 1))) + 5;
    a[0] %= (d * d - 1);
    r += a[(a[2] / (d + 1)) & 3] * 3;
    return r + a[0] + a[3];
}`},
	{name: "element faults inside typed parents", args: [][]int64{{0}, {1}, {2}, {3}, {4}, {5}}, src: `
int f(int n) {
    int a[4];
    for (int i = 0; i < 4; i++) { a[i] = i + 1; }
    int *z = 0;
    int s = a[0] * 2;
    if (n == 1) { s += (a[n + 3] + 1) * 2; }
    if (n == 2) {
        int *heap = (int *)malloc(4 * sizeof(int));
        heap[0] = 5;
        s += heap[0];
        free(heap);
        s = s - heap[1] * 3;
    }
    if (n == 3) { s = (z[1] << 2) + s; }
    if (n == 4) { a[n] += 5; }
    if (n == 5) { s += a[1]++ * (z[0] = 3); }
    return s;
}`},
	{name: "budget inside an index", args: [][]int64{{2, 0}, {2, 1}, {2, 2}, {2, 3}, {2, 4}, {40, 0}}, src: `
int f(int n, int w) {
    int a[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    int b[8] = {7, 6, 5, 4, 3, 2, 1, 0};
    int s = 0;
    for (int j = 0; j < w; j++) { }
    for (int k = 0; k < n; k++) {
        s += a[b[a[(k + s) & 7] & 7] & 7] * b[a[b[k & 7] & 7] & 7];
        a[b[k & 7] & 7] += b[a[(s + k) & 7] & 7];
    }
    return s;
}`},
	{name: "chained store through a char element", args: [][]int64{{1}, {-3}}, src: `
int f(int n) {
    char c[4];
    unsigned char u[4];
    bool b[2];
    int x = c[n & 3] = 300;
    int y = u[1] = c[n & 3] = n * 100;
    long z = (c[2] = 200) + (u[2] = -1);
    int t = b[0] = n;
    return x + y * 1000 + z + t + c[n & 3];
}`},
	{name: "profile notes of element stores", args: [][]int64{{3}, {-2}}, src: `
void put(int *p, int v) {
    p[0] = v;
    p[1] += v;
    p[2]++;
}
int f(int n) {
    int a[4];
    int acc[3];
    a[0] = n;
    a[1] = -n;
    a[2] = 0;
    a[3] = n * n;
    acc[0] = 0;
    acc[1] = 0;
    acc[2] = 0;
    for (int i = 0; i < 4; i++) {
        acc[i & 1] += a[i];
        a[i]--;
    }
    put(a, n * 3);
    put(acc, -7);
    return acc[0] + acc[1] + a[0] + a[1] + a[2];
}`},
	{name: "view through another integer type", args: [][]int64{{3}, {-7}}, src: `
long f(int n) {
    int a[4];
    a[0] = n;
    a[1] = -5;
    a[2] = 300;
    a[3] = n * 1000;
    unsigned int *q = (unsigned int *)a;
    unsigned char *c = (unsigned char *)a;
    long r = q[1] >> 28;
    r = r * 1000 + c[2] + (c[3] >> 1);
    r = r * 100 + (q[0] > 7) + *q + *(c + 1);
    c[0] = 511;
    q[3] += 1;
    c[1]++;
    r = r * 10 + a[0] + a[1] + a[3] + c[0] + q[3];
    return r;
}`},
	{name: "writes into a global struct array", args: [][]int64{{0}, {3}, {-6}}, src: `
struct S { int x; int y; };
struct S g[8];
int f(int n) {
    g[n & 7].x = n;
    g[(n + 1) & 7].y = n * 2;
    g[2].x += 5;
    g[2].y++;
    return g[n & 7].x * 1000 + g[(n + 1) & 7].y * 100 + g[2].x * 10 + g[2].y + g[5].x + g[6].y;
}`},
	{name: "writes into a local struct array", args: [][]int64{{0}, {4}, {7}}, src: `
struct S { int x; int y; };
int f(int n) {
    struct S a[6];
    for (int i = 0; i < n && i < 6; i += 2) { a[i].x = i + n; }
    a[1].y = -n;
    int s = 0;
    for (int i = 0; i < 6; i++) { s = s * 3 + a[i].x + a[i].y; }
    return s;
}`},
	{name: "writes into a malloc'd struct block", args: [][]int64{{2}, {-5}}, src: `
struct S { int x; int y; };
int f(int n) {
    struct S *p = (struct S *)malloc(4 * sizeof(struct S));
    p[1].x = n;
    (p + 2)->y = n + 1;
    p->x = 7;
    int s = p[0].x + p[1].x * 10 + p[2].y * 100 + p[3].x + p[3].y + p[1].y + p[2].x;
    free(p);
    return s;
}`},
	{name: "nested struct field write", args: [][]int64{{3}, {-1}}, src: `
struct In { int a; int b; };
struct Out { struct In in; int k; };
struct Out g[4];
int f(int n) {
    struct Out l[3];
    g[1].in.b = n;
    l[2].in.a = n + 1;
    l[0].k = 3;
    struct In t = g[2].in;
    t.a = 9;
    return g[1].in.b * 1000 + g[0].in.b * 100 + g[2].in.a + l[2].in.a * 10 + l[1].in.a + l[0].k + l[2].k + t.a + g[1].in.a;
}`},
	{name: "read of an untouched element", args: [][]int64{{1}, {6}}, src: `
struct S { int x; int y; };
struct S g[4];
int f(int n) {
    struct S l[4];
    g[0].x = n;
    struct S w = g[3];
    return g[3].x + g[3].y + l[n & 3].x + l[1].y + w.x + w.y + g[0].x * 10;
}`},
	{name: "copy of an untouched element written", args: [][]int64{{5}}, src: `
struct S { int x; int y; };
int f(int n) {
    struct S a[4];
    struct S t = a[3];
    t.x = n;
    struct S u;
    u = a[2];
    u.y = n + 1;
    a[1] = t;
    a[1].y = 9;
    return a[3].x * 10000 + t.x * 1000 + u.y * 100 + a[2].y * 10 + a[1].x + t.y + a[1].y;
}`},
	{name: "untouched element by value and by reference", args: [][]int64{{4}}, src: `
struct S { int x; int y; };
struct S g[4];
int byval(struct S s) { s.x = 11; return s.x + s.y; }
void byref(struct S &s, int v) { s.y = v; }
int f(int n) {
    int r = byval(g[2]);
    byref(g[3], n);
    struct S l[2];
    byref(l[1], n + 1);
    return r * 1000 + g[2].x * 100 + g[3].y * 10 + l[1].y + l[0].y;
}`},
	{name: "method writes an untouched element", args: [][]int64{{2}}, src: `
struct C {
    int v;
    int w;
    void set(int a) { v = a; }
    int get() { return v + w; }
};
struct C g[4];
int f(int n) {
    struct C l[3];
    g[2].set(n);
    l[1].set(n + 1);
    return g[2].get() * 1000 + g[1].get() * 100 + l[1].get() * 10 + l[2].get();
}`},
	{name: "dereference of an untouched element", args: [][]int64{{3}}, src: `
struct S { int x; int y; };
struct S g[4];
int f(int n) {
    struct S *p = &g[2];
    struct S t = *p;
    g[0] = *p;
    g[0].x = n;
    t.y = n + 1;
    struct S *q = &g[3];
    q->y = n * 2;
    return g[2].x * 10000 + g[2].y * 1000 + g[0].x * 100 + t.y * 10 + g[3].y + (*p).x + (*q).y;
}`},
	{name: "untouched element dereferenced by reference", args: [][]int64{{4}}, src: `
struct S { int x; int y; };
struct S g[4];
void byref(struct S &s, int v) { s.y = v; }
int f(int n) {
    struct S l[3];
    struct S *p = &g[1];
    byref(*p, n);
    struct S *q = l + 2;
    byref(*q, n + 1);
    return g[1].y * 100 + l[2].y * 10 + g[2].y + l[1].y;
}`},
	{name: "repaired pool kernel", args: [][]int64{{0}, {5}, {30}}, src: `
typedef int Node_ptr;
struct Node {
    int val;
    Node_ptr left;
    Node_ptr right;
};
struct Node Node_arr[256];
int Node_next = 1;
Node_ptr Node_malloc(int sz) {
    Node_ptr p = Node_next;
    Node_next = Node_next + 1;
    return p;
}
int total;
struct traverse_ctx {
    Node_ptr curr;
    int loc;
};
struct traverse_ctx traverse_stack[32];
int traverse_top;
void traverse(Node_ptr curr) {
    traverse_top = 0;
    traverse_stack[traverse_top].curr = curr;
    traverse_stack[traverse_top].loc = 0;
    traverse_top = traverse_top + 1;
    while (traverse_top > 0) {
        traverse_top = traverse_top - 1;
        Node_ptr curr = traverse_stack[traverse_top].curr;
        switch (traverse_stack[traverse_top].loc) {
        case 0:
            if (curr == 0) {
                break;
            }
            total = total + Node_arr[curr].val;
            traverse_stack[traverse_top].curr = curr;
            traverse_stack[traverse_top].loc = 1;
            traverse_top = traverse_top + 1;
            traverse_stack[traverse_top].curr = Node_arr[curr].left;
            traverse_stack[traverse_top].loc = 0;
            traverse_top = traverse_top + 1;
            break;
        case 1:
            traverse_stack[traverse_top].curr = curr;
            traverse_stack[traverse_top].loc = 2;
            traverse_top = traverse_top + 1;
            traverse_stack[traverse_top].curr = Node_arr[curr].right;
            traverse_stack[traverse_top].loc = 0;
            traverse_top = traverse_top + 1;
            break;
        case 2:
            break;
        }
    }
}
int f(int n) {
    if (n < 0) {
        n = -n;
    }
    if (n > 24) {
        n = 24;
    }
    Node_ptr root = 0;
    for (fpga_uint<6> i = 0; i < n; i++) {
        #pragma HLS pipeline II=1
        fpga_uint<8> v = i * 37 % 101;
        Node_ptr nn = Node_malloc(sizeof(struct Node));
        Node_arr[nn].val = v;
        Node_arr[nn].left = 0;
        Node_arr[nn].right = 0;
        if (root == 0) {
            root = nn;
        } else {
            Node_ptr p = root;
            while (1) {
                if (v < Node_arr[p].val) {
                    if (Node_arr[p].left == 0) {
                        Node_arr[p].left = nn;
                        break;
                    }
                    p = Node_arr[p].left;
                } else {
                    if (Node_arr[p].right == 0) {
                        Node_arr[p].right = nn;
                        break;
                    }
                    p = Node_arr[p].right;
                }
            }
        }
    }
    total = 0;
    traverse(root);
    return total;
}`},
	{name: "stream array FIFOs", args: [][]int64{{7}}, src: `
unsigned f(unsigned v) {
    hls::stream<unsigned> s[2];
    s[0].write(v);
    s[1].write(v + 10);
    return s[1].read() * 1000 + s[0].read();
}`},
	{name: "struct array with a stream field", args: [][]int64{{3}}, src: `
struct Ch { hls::stream<int> q; int n; };
int f(int v) {
    struct Ch c[3];
    c[0].q.write(v);
    c[2].q.write(v * 2);
    c[2].n = 1;
    return c[2].q.read() * 100 + c[0].q.read() * 10 + c[2].n + c[1].n;
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
