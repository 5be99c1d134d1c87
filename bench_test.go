// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (§6). Heavy targets run the quick configuration so a
// full `go test -bench=. -benchmem` completes on a laptop; the hgeval
// command runs the same harness at full effort.
//
// Reported custom metrics carry the reproduction data: compat/10 and
// improved/10 for Table 3, coverage and test counts for Table 4, speedup
// factors for Table 5 and Figure 9.
package heterogen_test

import (
	"testing"

	"github.com/hetero/heterogen"
	"github.com/hetero/heterogen/internal/baselines"
	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/eval"
	"github.com/hetero/heterogen/internal/forum"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/subjects"
)

// ---------------------------------------------------------------------------
// Figure 3 — forum study

func BenchmarkFigure3ForumStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := forum.Study(forum.Corpus(1000, 1))
		if res.Accuracy < 0.9 {
			b.Fatalf("classifier degraded: %.2f", res.Accuracy)
		}
		b.ReportMetric(res.Percent[hls.ClassUnsupportedType], "types%")
		b.ReportMetric(res.Percent[hls.ClassDynamicData], "dynamic%")
	}
}

// ---------------------------------------------------------------------------
// Table 1 — error catalog: the checker produces each canonical diagnostic

func BenchmarkTable1ErrorCatalog(b *testing.B) {
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
	for i := 0; i < b.N; i++ {
		for class, src := range snippets {
			u := cparser.MustParse(src)
			rep := check.Run(u, hls.DefaultConfig("kernel"))
			if !rep.HasClass(class) {
				b.Fatalf("catalog miss: %s not diagnosed", class)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Table 2 / Figure 7c — edit catalog and dependence structure

func BenchmarkTable2EditCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reg := repair.Registry()
		perClass := map[hls.ErrorClass]int{}
		for _, t := range reg {
			perClass[t.Class]++
		}
		for _, c := range hls.AllClasses() {
			if perClass[c] == 0 {
				b.Fatalf("no templates for class %s", c)
			}
		}
		// Figure 7c edges.
		for _, pair := range [][2]string{
			{"stream_static", "constructor"},
			{"inst_update", "flatten"},
			{"pointer", "insert"},
			{"type_casting", "type_trans"},
		} {
			t, ok := repair.TemplateByID(pair[0])
			if !ok || len(t.Requires) == 0 || t.Requires[0] != pair[1] {
				b.Fatalf("dependence edge %s -> %s missing", pair[0], pair[1])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Table 3 — conversion effectiveness (full pipeline per subject)

func BenchmarkTable3Conversion(b *testing.B) {
	cfg := eval.QuickConfig()
	for _, s := range subjects.All() {
		s := s
		b.Run(s.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := eval.RunSubject(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(boolMetric(run.Compatible && run.BehaviorOK), "compat")
				b.ReportMetric(boolMetric(run.Improved), "improved")
				b.ReportMetric(float64(run.DeltaLOC), "ΔLOC")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table 4 — test generation

func BenchmarkTable4TestGen(b *testing.B) {
	for _, s := range subjects.All() {
		s := s
		b.Run(s.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp, err := heterogen.GenerateTests(s.Source, heterogen.Options{Kernel: s.Kernel,
					Fuzz: fuzz.Options{MaxExecs: 400, Plateau: 150}})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*camp.Coverage, "cov%")
				b.ReportMetric(float64(camp.Execs), "tests")
				if s.ExistingTests != nil {
					cov, err := fuzz.Replay(s.MustParse(), s.Kernel, s.ExistingTests())
					if err != nil {
						b.Fatal(err)
					}
					if camp.Coverage < cov {
						b.Fatalf("%s: generated %.2f below existing %.2f", s.ID, camp.Coverage, cov)
					}
					b.ReportMetric(100*cov, "existing_cov%")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table 5 — manual and HeteroRefactor comparison

func BenchmarkTable5Comparison(b *testing.B) {
	cfg := eval.QuickConfig()
	for _, id := range []string{"P1", "P3", "P6", "P8"} {
		s, err := subjects.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := eval.RunSubject(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if run.HRSucceeded != s.HRSupported {
					b.Fatalf("%s: HR=%v want %v", id, run.HRSucceeded, s.HRSupported)
				}
				if run.RuntimeHGMS > 0 {
					b.ReportMetric(run.RuntimeOriginMS/run.RuntimeHGMS, "speedupHG")
				}
				if run.RuntimeManualMS > 0 {
					b.ReportMetric(run.RuntimeOriginMS/run.RuntimeManualMS, "speedupManual")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 9 — ablations (dependence guidance and the style checker)

func BenchmarkFigure9Ablation(b *testing.B) {
	cfg := eval.QuickConfig()
	for _, id := range []string{"P1", "P3", "P5", "P8"} {
		s, err := subjects.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				abl, err := eval.RunAblation(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if abl.WithoutDepOK && abl.HGMinutes > 0 {
					b.ReportMetric(abl.WithoutDepMinutes/abl.HGMinutes, "dep_speedup")
				}
				b.ReportMetric(abl.HGInvokePct, "hg_invoke%")
				b.ReportMetric(abl.WithoutCheckerPct, "nochecker_invoke%")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Design-choice ablations beyond the paper's figures

// BenchmarkAblationTypedMutation measures the coverage effect of the
// type-validity filter on a narrow-typed kernel (§4's second insight).
func BenchmarkAblationTypedMutation(b *testing.B) {
	src := `
int kernel(fpga_uint<7> x, fpga_uint<7> y) {
    int r = 0;
    if (x > 100) { r += 1; }
    if (y > 100) { r += 2; }
    if (x + y == 200) { r += 4; }
    return r;
}`
	for i := 0; i < b.N; i++ {
		typed := heterogen.Options{Kernel: "kernel", Fuzz: fuzz.Options{MaxExecs: 500}}
		campT, err := heterogen.GenerateTests(src, typed)
		if err != nil {
			b.Fatal(err)
		}
		untyped := typed
		untyped.Fuzz.UntypedMutation = true
		campU, err := heterogen.GenerateTests(src, untyped)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*campT.Coverage, "typed_cov%")
		b.ReportMetric(100*campU.Coverage, "untyped_cov%")
	}
}

// BenchmarkAblationSeedCapture measures kernel-entry seeding vs random
// seeding (§4's first insight).
func BenchmarkAblationSeedCapture(b *testing.B) {
	src := `
int gate(int a, int b) { return a * 1000 + b; }
int kernel(int secret) {
    if (secret == gate(31, 337)) { return 1; }
    return 0;
}
int host() { return kernel(gate(31, 337)); }`
	for i := 0; i < b.N; i++ {
		blind := heterogen.Options{Kernel: "kernel", Fuzz: fuzz.Options{MaxExecs: 600}}
		campB, err := heterogen.GenerateTests(src, blind)
		if err != nil {
			b.Fatal(err)
		}
		seeded := blind
		seeded.HostMain = "host"
		campS, err := heterogen.GenerateTests(src, seeded)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*campB.Coverage, "blind_cov%")
		b.ReportMetric(100*campS.Coverage, "seeded_cov%")
		if campS.Coverage < campB.Coverage {
			b.Fatal("seed capture should never lose coverage")
		}
	}
}

// BenchmarkAblationBitwidth measures the resource effect of bitwidth
// finitization (the HeteroRefactor-inherited optimization): the FF saving
// of the profiled initial version over the declared C widths.
func BenchmarkAblationBitwidth(b *testing.B) {
	s, err := subjects.ByID("P3")
	if err != nil {
		b.Fatal(err)
	}
	camp, err := heterogen.GenerateTests(s.Source, heterogen.Options{Kernel: s.Kernel,
		Fuzz: fuzz.Options{MaxExecs: 300}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(searchWithProfile(b, s, camp.Tests), "ff_saving%")
	}
}

func searchWithProfile(b *testing.B, s subjects.Subject, tests []fuzz.TestCase) float64 {
	b.Helper()
	orig := s.MustParse()
	prof, err := profileGenerate(orig, s.Kernel, tests)
	if err != nil {
		b.Fatal(err)
	}
	base := estimateFF(orig)
	narrowed := estimateFF(prof)
	if base == 0 {
		return 0
	}
	return 100 * float64(base-narrowed) / float64(base)
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the substrates

func BenchmarkParser(b *testing.B) {
	s, _ := subjects.ByID("P9")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cparser.Parse(s.Source); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreter(b *testing.B) {
	u := cparser.MustParse(`
int kernel(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i * i % 7; }
    return s;
}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, err := interp.New(u, interp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := in.CallKernel("kernel", []interp.Value{interp.IntValue(1000)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecker(b *testing.B) {
	s, _ := subjects.ByID("P9")
	u := cparser.MustParse(s.Source)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		check.Run(u, hls.DefaultConfig(s.Kernel))
	}
}

func BenchmarkCloneUnit(b *testing.B) {
	s, _ := subjects.ByID("P9")
	u := cparser.MustParse(s.Source)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cast.CloneUnit(u)
	}
}

func BenchmarkHeteroRefactorBaseline(b *testing.B) {
	s, _ := subjects.ByID("P3")
	for i := 0; i < b.N; i++ {
		res, err := baselines.HeteroRefactor(s.Source, s.Kernel, s.ExistingTests())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Compatible {
			b.Fatal("HR must repair P3")
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
