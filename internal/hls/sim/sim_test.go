package sim

import (
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/interp"
)

func TestSimulatorRunsKernel(t *testing.T) {
	u := cparser.MustParse(`
int kernel(int x) { return x * x + 1; }`)
	s, err := New(u, hls.DefaultConfig("kernel"), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]interp.Value{interp.IntValue(6)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.AsInt() != 37 {
		t.Errorf("ret %d", res.Ret.AsInt())
	}
	if res.Cycles <= 0 {
		t.Error("cycles should be positive")
	}
	if res.LatencyMS <= 0 {
		t.Error("latency should be positive")
	}
}

func TestLatencyIncludesInvocationOverhead(t *testing.T) {
	u := cparser.MustParse(`int kernel() { return 1; }`)
	s, _ := New(u, hls.DefaultConfig("kernel"), nil, "")
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyMS < interp.FPGAInvokeOverheadUS/1e3 {
		t.Errorf("latency %f ms should include %f us overhead",
			res.LatencyMS, interp.FPGAInvokeOverheadUS)
	}
}

// runLoopKernel runs a two-array loop kernel and reports its cycle count.
func runLoopKernel(t *testing.T, u *cast.Unit) int64 {
	t.Helper()
	s, err := New(u, hls.DefaultConfig("kernel"), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	a := interp.NewArrayObject("a", ctypes.IntT, make([]interp.Value, 64))
	b := interp.NewArrayObject("b", ctypes.IntT, make([]interp.Value, 64))
	res, err := s.Run([]interp.Value{a, b})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

func TestPragmasReduceLatency(t *testing.T) {
	plain := cparser.MustParse(`
void kernel(int a[64], int b[64]) {
    for (int i = 0; i < 64; i++) { b[i] = a[i] * 3; }
}`)
	tuned := cparser.MustParse(`
void kernel(int a[64], int b[64]) {
#pragma HLS array_partition variable=a factor=8
#pragma HLS array_partition variable=b factor=8
    for (int i = 0; i < 64; i++) {
#pragma HLS pipeline II=1
#pragma HLS unroll factor=8
        b[i] = a[i] * 3;
    }
}`)
	cp := runLoopKernel(t, plain)
	ct := runLoopKernel(t, tuned)
	if ct*4 > cp {
		t.Errorf("tuned kernel should be much faster: plain=%d tuned=%d", cp, ct)
	}
}

func TestUnrollWithoutPartitionIsPortLimited(t *testing.T) {
	unpartitioned := cparser.MustParse(`
void kernel(int a[64], int b[64]) {
    for (int i = 0; i < 64; i++) {
#pragma HLS unroll factor=8
        b[i] = a[i] * 3;
    }
}`)
	partitioned := cparser.MustParse(`
void kernel(int a[64], int b[64]) {
#pragma HLS array_partition variable=a factor=8
#pragma HLS array_partition variable=b factor=8
    for (int i = 0; i < 64; i++) {
#pragma HLS unroll factor=8
        b[i] = a[i] * 3;
    }
}`)
	cu := runLoopKernel(t, unpartitioned)
	cp := runLoopKernel(t, partitioned)
	if cp >= cu {
		t.Errorf("partitioning should unlock unroll speedup: unpart=%d part=%d", cu, cp)
	}
}

func TestResourceEstimateMonotonicInBitwidth(t *testing.T) {
	wide := cparser.MustParse(`
int kernel(int x) {
    int a;
    int b;
    a = x;
    b = a * 2;
    return b;
}`)
	narrow := cparser.MustParse(`
int kernel(int x) {
    fpga_uint<7> a;
    fpga_uint<8> b;
    a = x;
    b = a * 2;
    return b;
}`)
	rw := Estimate(wide)
	rn := Estimate(narrow)
	if rn.FF >= rw.FF {
		t.Errorf("narrow design should use fewer FFs: wide=%d narrow=%d", rw.FF, rn.FF)
	}
}

func TestResourceEstimateCountsArraysAndDSP(t *testing.T) {
	u := cparser.MustParse(`
int big[4096];
int kernel(int x) {
    return x * x;
}`)
	r := Estimate(u)
	if r.BRAM < 4096*32/(18*1024) {
		t.Errorf("BRAM estimate too small: %v", r)
	}
	if r.DSP < 1 {
		t.Errorf("multiplication should cost DSP: %v", r)
	}
}

func TestPartitionMultipliesBRAM(t *testing.T) {
	mono := cparser.MustParse(`
int buf[1024];
void kernel(int x) { buf[0] = x; }`)
	parted := cparser.MustParse(`
int buf[1024];
void kernel(int x) {
#pragma HLS array_partition variable=buf factor=4
    buf[0] = x;
}`)
	rm := Estimate(mono)
	rp := Estimate(parted)
	if rp.BRAM <= rm.BRAM {
		t.Errorf("partitioned array should use more BRAM banks: %d vs %d", rm.BRAM, rp.BRAM)
	}
}

func TestSimulatorFaultsOnMalloc(t *testing.T) {
	u := cparser.MustParse(`
int kernel(int n) {
    int *p = (int *)malloc(n);
    return 0;
}`)
	s, _ := New(u, hls.DefaultConfig("kernel"), nil, "")
	if _, err := s.Run([]interp.Value{interp.IntValue(8)}); err == nil {
		t.Error("malloc must fault on the fabric")
	}
}

func TestResetClearsGlobals(t *testing.T) {
	u := cparser.MustParse(`
int g;
int kernel() { g++; return g; }`)
	s, _ := New(u, hls.DefaultConfig("kernel"), nil, "")
	r1, _ := s.Run(nil)
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	r2, _ := s.Run(nil)
	if r1.Ret.AsInt() != 1 || r2.Ret.AsInt() != 1 {
		t.Errorf("reset should clear globals: %d then %d", r1.Ret.AsInt(), r2.Ret.AsInt())
	}
}
