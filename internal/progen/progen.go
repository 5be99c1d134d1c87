package progen

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/hls"
)

// Kind names one injectable violation shape.
type Kind string

// The injectable violation kinds, mapped to the error classes of the
// paper's Table 1.
const (
	// KindRecursion plants a self-recursive void helper in the shape
	// stack_trans supports (top-level recursive tail statement, arrays
	// passed through unchanged, bounded depth).
	KindRecursion Kind = "recursion"
	// KindMalloc plants a (struct T*)malloc/free pair — the
	// insert+pointer pool-transformation shape of Figure 2.
	KindMalloc Kind = "malloc"
	// KindVLA plants a runtime-sized local array (unknown-bound
	// access); array_static finitizes it.
	KindVLA Kind = "vla"
	// KindPointer plants a local pointer alias into a top-interface
	// array; pointer_var inlines it away.
	KindPointer Kind = "pointer"
	// KindLongDouble plants a long double local; type_trans converts
	// it to fpga_float.
	KindLongDouble Kind = "longdouble"
	// KindTopPragma plants a file-scope "#pragma HLS top" naming the
	// wrong function; top_rename/top_delete_pragma fix it.
	KindTopPragma Kind = "top_pragma"
	// KindLoopPragma plants an unroll or array_partition directive on
	// a counted loop with a factor that does not divide the trip
	// count; delete_loop_pragma (or a legal re-explore) fixes it.
	KindLoopPragma Kind = "loop_pragma"
)

// AllKinds returns every injectable kind in deterministic order.
func AllKinds() []Kind {
	return []Kind{KindRecursion, KindMalloc, KindVLA, KindPointer,
		KindLongDouble, KindTopPragma, KindLoopPragma}
}

// ClassOf maps a violation kind to the error class the checker must
// report for it (Table 1). Unknown kinds map to the zero class.
func ClassOf(k Kind) hls.ErrorClass {
	switch k {
	case KindRecursion, KindMalloc, KindVLA:
		return hls.ClassDynamicData
	case KindPointer, KindLongDouble:
		return hls.ClassUnsupportedType
	case KindTopPragma:
		return hls.ClassTopFunction
	case KindLoopPragma:
		return hls.ClassLoopParallel
	}
	return 0
}

// Violation is one oracle entry: a planted incompatibility and the
// error class the checker must report for it.
type Violation struct {
	Kind    Kind
	Class   hls.ErrorClass
	Subject string // entity the diagnostic should concern
	Detail  string // human-readable note (pragma text, depth, ...)
}

// Program is one generated kernel plus its oracle.
type Program struct {
	Seed   int64
	Kernel string
	// Source is the generated C text; Unit is its parse (already
	// branch-numbered by the frontend).
	Source string
	Unit   *cast.Unit
	// N is the top-interface array extent.
	N int
	// Planted is the violation oracle, in deterministic order.
	Planted []Violation
}

// Options configures one generation. The zero value generates a
// violation-carrying program for seed 0.
type Options struct {
	Seed int64
	// Clean suppresses violation injection: the program must pass the
	// checker with zero diagnostics.
	Clean bool
	// MaxViolations bounds how many distinct kinds are injected
	// (default 3; at least one is always planted unless Clean).
	MaxViolations int
	// Kinds restricts the injectable set (default AllKinds).
	Kinds []Kind
}

// DefaultMaxViolations is the default cap on planted kinds per program.
const DefaultMaxViolations = 3

// Generate produces the program for the given options. It fails only
// on internal inconsistency (the emitted source must re-parse and every
// planted violation must be structurally present), which tests assert
// never happens over large seed ranges.
func Generate(opts Options) (Program, error) {
	g := &gen{r: rand.New(rand.NewSource(opts.Seed))}
	p := g.program(opts)
	p.Seed = opts.Seed
	u, err := cparser.Parse(p.Source)
	if err != nil {
		return Program{}, fmt.Errorf("progen: seed %d emitted unparsable source: %w\n%s",
			opts.Seed, err, p.Source)
	}
	p.Unit = u
	for _, v := range p.Planted {
		if !Present(u, v) {
			return Program{}, fmt.Errorf("progen: seed %d planted %s/%s but it is not present in the parse",
				opts.Seed, v.Kind, v.Subject)
		}
	}
	return p, nil
}

// MustGenerate is Generate for tests and tools where a generator
// inconsistency is a bug.
func MustGenerate(opts Options) Program {
	p, err := Generate(opts)
	if err != nil {
		panic(err)
	}
	return p
}

// Present reports whether the construct a violation describes still
// exists in the unit — the structural half of the oracle. The reducer
// uses it to keep a shrinking program faithful to the original failure
// (a reproducer that lost its planted construct reproduces nothing).
func Present(u *cast.Unit, v Violation) bool {
	switch v.Kind {
	case KindRecursion:
		fn := u.Func(v.Subject)
		return fn != nil && len(cast.CallsTo(fn, v.Subject)) > 0
	case KindMalloc:
		found := false
		cast.Inspect(u, func(n cast.Node) bool {
			if c, ok := n.(*cast.Call); ok {
				if id, ok := c.Fun.(*cast.Ident); ok && id.Name == "malloc" {
					found = true
				}
			}
			return true
		})
		return found
	case KindVLA:
		found := false
		cast.Inspect(u, func(n cast.Node) bool {
			if d, ok := n.(*cast.DeclStmt); ok {
				if a, ok := ctypes.Resolve(d.Type).(ctypes.Array); ok && a.Len <= 0 {
					found = true
				}
			}
			return true
		})
		return found
	case KindPointer:
		found := false
		cast.Inspect(u, func(n cast.Node) bool {
			if d, ok := n.(*cast.DeclStmt); ok && d.Name == v.Subject {
				if _, ok := ctypes.Resolve(d.Type).(ctypes.Pointer); ok {
					found = true
				}
			}
			return true
		})
		return found
	case KindLongDouble:
		found := false
		cast.Inspect(u, func(n cast.Node) bool {
			if d, ok := n.(*cast.DeclStmt); ok {
				if f, ok := ctypes.Resolve(d.Type).(ctypes.Float); ok && f.FK == ctypes.F80 {
					found = true
				}
			}
			return true
		})
		return found
	case KindTopPragma:
		// The frontend attaches a file-scope pragma immediately
		// preceding a function to that function's head, so look in
		// both places (the checker does the same).
		isTop := func(text string) bool {
			dir := cast.ParsePragma(text)
			return dir.Kind == cast.PragmaTop && dir.Name == v.Subject
		}
		for _, d := range u.Decls {
			switch x := d.(type) {
			case *cast.PragmaDecl:
				if isTop(x.Text) {
					return true
				}
			case *cast.FuncDecl:
				for _, p := range x.Pragmas {
					if isTop(p.Text) {
						return true
					}
				}
			}
		}
		return false
	case KindLoopPragma:
		// Pragma nodes store the text without the "#pragma " prefix. An
		// empty Detail (a replayed reproducer, which records only kind
		// and subject) matches any loop pragma.
		want := strings.TrimPrefix(v.Detail, "#pragma ")
		found := false
		cast.Inspect(u, func(n cast.Node) bool {
			var pragmas []*cast.Pragma
			switch l := n.(type) {
			case *cast.For:
				pragmas = l.Pragmas
			case *cast.While:
				pragmas = l.Pragmas
			}
			for _, p := range pragmas {
				if v.Detail == "" || p.Text == want {
					found = true
				}
			}
			return true
		})
		return found
	}
	return false
}

// ---------------------------------------------------------------------------
// Generator internals. All randomness flows through g.r in a fixed
// draw order, so output is a pure function of the seed.

type gen struct {
	r         *rand.Rand
	n         int // top-interface array extent
	hasB      bool
	hasHelper bool
	loops     int // unique-counter for loop variables
	body      []string
	decls     []string
}

func (g *gen) ci(lo, hi int) int { return lo + g.r.Intn(hi-lo+1) }

func (g *gen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

// program emits the full source text and oracle for one seed.
func (g *gen) program(opts Options) Program {
	g.n = []int{16, 32, 64}[g.r.Intn(3)]
	g.hasB = g.r.Intn(2) == 0
	g.hasHelper = g.r.Intn(2) == 0

	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	maxV := opts.MaxViolations
	if maxV <= 0 {
		maxV = DefaultMaxViolations
	}
	if maxV > len(kinds) {
		maxV = len(kinds)
	}
	// Select 1..maxV distinct kinds by a seeded shuffle. The draw
	// happens even for clean programs so that a clean/dirty pair from
	// the same seed shares its base-program shape.
	count := 1 + g.r.Intn(maxV)
	perm := g.r.Perm(len(kinds))
	selected := map[Kind]bool{}
	for _, idx := range perm[:count] {
		selected[kinds[idx]] = true
	}
	if opts.Clean {
		selected = map[Kind]bool{}
	}

	var planted []Violation
	plant := func(v Violation) { planted = append(planted, v) }

	if g.hasHelper {
		g.decls = append(g.decls, fmt.Sprintf(
			"static int helper(int x) {\n    return (x %s %d) ^ %d;\n}",
			g.pick("*", "+", "-"), g.ci(2, 9), g.ci(1, 63)))
	}

	// Base body: an accumulator plus 2-4 constructs from the menu.
	g.body = append(g.body, fmt.Sprintf("int acc = %d;", g.ci(0, 99)))
	for i, n := 0, 2+g.r.Intn(3); i < n; i++ {
		g.construct()
	}

	// Injections, in the fixed order of AllKinds so the oracle order
	// is deterministic regardless of the selection shuffle.
	if selected[KindRecursion] {
		// Mostly shallow (the initial 32-frame stack suffices), but one
		// in four exceeds it so the search must take the resize path.
		depth := g.ci(4, 12)
		if g.r.Intn(4) == 0 {
			depth = g.ci(40, 60)
			if depth > g.n {
				depth = g.n // recursion indexes a[ri]: stay in bounds
			}
		}
		g.decls = append(g.decls, fmt.Sprintf(
			"static void rec_add(int a[%d], int out[%d], int ri) {\n"+
				"    if (ri >= %d) {\n        return;\n    }\n"+
				"    out[ri] = out[ri] + a[ri];\n"+
				"    rec_add(a, out, ri + 1);\n}", g.n, g.n, depth))
		g.body = append(g.body, "rec_add(a, out, 0);")
		plant(Violation{Kind: KindRecursion, Class: hls.ClassDynamicData,
			Subject: "rec_add", Detail: fmt.Sprintf("depth=%d", depth)})
	}
	if selected[KindMalloc] {
		g.decls = append(g.decls, "struct Pack {\n    int pv;\n    int pw;\n};")
		g.body = append(g.body,
			"struct Pack *pk = (struct Pack *)malloc(sizeof(struct Pack));",
			fmt.Sprintf("pk->pv = s + %d;", g.ci(1, 49)),
			"pk->pw = pk->pv * 2;",
			"acc = acc + pk->pw;",
			"free(pk);")
		plant(Violation{Kind: KindMalloc, Class: hls.ClassDynamicData,
			Subject: "malloc", Detail: "struct Pack pool shape"})
	}
	if selected[KindVLA] {
		iv := g.loopVar()
		c := g.ci(1, 9)
		// Mostly small bounds (the initial 64-element finitization
		// suffices), but one in four can exceed 64 at runtime so the
		// search must grow the array via resize.
		mask := 7
		if g.r.Intn(4) == 0 {
			mask = 127
		}
		g.body = append(g.body,
			fmt.Sprintf("int vn = (s & %d) + 2;", mask),
			"int vbuf[vn];",
			fmt.Sprintf("for (int %s = 0; %s < vn; %s++) {", iv, iv, iv),
			fmt.Sprintf("    vbuf[%s] = %s * %d;", iv, iv, c),
			"}",
			"acc = acc + vbuf[vn - 1];")
		plant(Violation{Kind: KindVLA, Class: hls.ClassDynamicData,
			Subject: "vbuf", Detail: "runtime-sized local array"})
	}
	if selected[KindPointer] {
		if g.r.Intn(2) == 0 {
			k := g.ci(0, 3)
			g.body = append(g.body,
				fmt.Sprintf("int *ptr = &a[%d];", k),
				"acc = acc + ptr[0] + ptr[1];")
		} else {
			g.body = append(g.body,
				"int *ptr = a;",
				fmt.Sprintf("acc = acc + *ptr + ptr[%d];", g.ci(1, 5)))
		}
		plant(Violation{Kind: KindPointer, Class: hls.ClassUnsupportedType,
			Subject: "ptr", Detail: "local alias into top-interface array"})
	}
	if selected[KindLongDouble] {
		g.body = append(g.body,
			fmt.Sprintf("long double lacc = %d.5;", g.ci(0, 3)),
			"lacc = lacc + (a[0] & 1023);",
			"lacc = lacc * 2.0;",
			"acc = acc + (int)lacc;")
		plant(Violation{Kind: KindLongDouble, Class: hls.ClassUnsupportedType,
			Subject: "lacc", Detail: "long double local"})
	}
	if selected[KindTopPragma] {
		plant(Violation{Kind: KindTopPragma, Class: hls.ClassTopFunction,
			Subject: "main_entry", Detail: "#pragma HLS top name=main_entry"})
	}

	// The closing output loop always exists; a planted loop pragma
	// attaches here so its trip count is the statically known N.
	var loopPragma string
	if selected[KindLoopPragma] {
		factor := []int{3, 5, 7}[g.r.Intn(3)]
		if g.r.Intn(2) == 0 {
			loopPragma = fmt.Sprintf("#pragma HLS unroll factor=%d", factor)
			plant(Violation{Kind: KindLoopPragma, Class: hls.ClassLoopParallel,
				Subject: "unroll", Detail: loopPragma})
		} else {
			loopPragma = fmt.Sprintf("#pragma HLS array_partition variable=a cyclic factor=%d", factor)
			plant(Violation{Kind: KindLoopPragma, Class: hls.ClassLoopParallel,
				Subject: "a", Detail: loopPragma})
		}
	}
	fo := g.loopVar()
	g.body = append(g.body, fmt.Sprintf("for (int %s = 0; %s < %d; %s++) {", fo, fo, g.n, fo))
	if loopPragma != "" {
		g.body = append(g.body, loopPragma)
	}
	g.body = append(g.body,
		fmt.Sprintf("    out[%s] = out[%s] ^ (acc + %s);", fo, fo, fo),
		"}",
		"return acc;")

	// Assemble the translation unit.
	var b strings.Builder
	if selected[KindTopPragma] {
		b.WriteString("#pragma HLS top name=main_entry\n")
	}
	for _, d := range g.decls {
		b.WriteString(d)
		b.WriteString("\n")
	}
	params := fmt.Sprintf("int a[%d], ", g.n)
	if g.hasB {
		params += fmt.Sprintf("int b[%d], ", g.n)
	}
	params += fmt.Sprintf("int s, int out[%d]", g.n)
	b.WriteString(fmt.Sprintf("int kernel(%s) {\n", params))
	for _, line := range g.body {
		if strings.HasPrefix(line, "#pragma") {
			b.WriteString(line)
		} else {
			b.WriteString("    " + line)
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")

	return Program{
		Kernel:  "kernel",
		Source:  b.String(),
		N:       g.n,
		Planted: planted,
	}
}

func (g *gen) loopVar() string {
	g.loops++
	return fmt.Sprintf("i%d", g.loops-1)
}

// term returns a stored value usable on either side of ring-safe
// arithmetic: an input element, the scalar, or a small constant.
// Stored values are safe under bitwidth finitization because the
// profiled width covers every value they ever hold; compound
// intermediates are only combined with +,-,*,&,|,^,<< (congruent mod
// 2^w), never compared or right-shifted.
func (g *gen) term(iv string) string {
	switch n := g.r.Intn(4); {
	case n == 0 && iv != "":
		return fmt.Sprintf("a[%s]", iv)
	case n == 1 && g.hasB && iv != "":
		return fmt.Sprintf("b[%s]", iv)
	case n == 2:
		return "s"
	default:
		return fmt.Sprintf("%d", g.ci(1, 99))
	}
}

// expr builds a small ring-safe expression over stored terms.
func (g *gen) expr(iv string) string {
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("%s %s %s", g.term(iv), g.pick("+", "-", "*", "&", "|", "^"), g.term(iv))
	case 1:
		// Right shift is not congruent mod 2^w, so only stored values
		// are shifted (see term's comment).
		stored := "s"
		if iv != "" && g.r.Intn(2) == 0 {
			stored = fmt.Sprintf("a[%s]", iv)
		}
		return fmt.Sprintf("(%s >> %d) & %d", stored, g.ci(1, 4), g.ci(1, 255))
	default:
		return fmt.Sprintf("(%s %s %s) %s %d",
			g.term(iv), g.pick("+", "^"), g.term(iv), g.pick("*", "+", "^"), g.ci(1, 31))
	}
}

// construct appends one menu construct to the body.
func (g *gen) construct() {
	switch g.r.Intn(7) {
	case 0: // output loop
		iv := g.loopVar()
		g.body = append(g.body,
			fmt.Sprintf("for (int %s = 0; %s < %d; %s++) {", iv, iv, g.n, iv),
			fmt.Sprintf("    out[%s] = %s;", iv, g.expr(iv)),
			"}")
	case 1: // accumulation loop with a branch
		iv := g.loopVar()
		g.body = append(g.body,
			fmt.Sprintf("for (int %s = 0; %s < %d; %s++) {", iv, iv, g.n, iv),
			fmt.Sprintf("    if (a[%s] > %d) {", iv, g.ci(0, 50)),
			fmt.Sprintf("        acc = acc + %s;", g.expr(iv)),
			"    } else {",
			fmt.Sprintf("        acc = acc - %s;", g.expr(iv)),
			"    }",
			"}")
	case 2: // plain accumulation loop
		iv := g.loopVar()
		g.body = append(g.body,
			fmt.Sprintf("for (int %s = 0; %s < %d; %s++) {", iv, iv, g.n, iv),
			fmt.Sprintf("    acc = acc %s %s;", g.pick("+", "^"), g.expr(iv)),
			"}")
	case 3: // nested bit loop
		iv, jv := g.loopVar(), g.loopVar()
		g.body = append(g.body,
			fmt.Sprintf("for (int %s = 0; %s < %d; %s++) {", iv, iv, g.n, iv),
			fmt.Sprintf("    for (int %s = 0; %s < 4; %s++) {", jv, jv, jv),
			fmt.Sprintf("        acc = acc + ((a[%s] >> %s) & 1);", iv, jv),
			"    }",
			"}")
	case 4: // data-dependent countdown
		tv := fmt.Sprintf("t%d", g.loops)
		g.loops++
		g.body = append(g.body,
			fmt.Sprintf("int %s = s & 15;", tv),
			fmt.Sprintf("while (%s > 0) {", tv),
			fmt.Sprintf("    acc = acc + %s;", tv),
			fmt.Sprintf("    %s = %s - 1;", tv, tv),
			"}")
	case 5: // switch on low scalar bits
		g.body = append(g.body,
			"switch (s & 3) {",
			"case 0:",
			fmt.Sprintf("    acc = acc + %d;", g.ci(1, 20)),
			"    break;",
			"case 1:",
			fmt.Sprintf("    acc = acc ^ %d;", g.ci(1, 20)),
			"    break;",
			"default:",
			fmt.Sprintf("    acc = acc - %d;", g.ci(1, 20)),
			"    break;",
			"}")
	default: // helper call or ternary
		if g.hasHelper {
			iv := g.loopVar()
			g.body = append(g.body,
				fmt.Sprintf("for (int %s = 0; %s < %d; %s++) {", iv, iv, g.n, iv),
				fmt.Sprintf("    out[%s] = helper(a[%s]) + acc;", iv, iv),
				"}")
		} else {
			g.body = append(g.body, fmt.Sprintf(
				"acc = acc + ((s > %d) ? %d : %d);", g.ci(0, 40), g.ci(1, 30), g.ci(1, 30)))
		}
	}
}
