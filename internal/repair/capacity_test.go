package repair

import (
	"context"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/sim"
)

// tinyProfile is a deliberately small part, so modest designs exercise
// the capacity gate.
var tinyProfile = hls.DeviceProfile{Name: "tiny", Part: "tiny-part",
	Cap: hls.Capacity{LUT: 5000, FF: 20000, DSP: 64, BRAM: 12}, ClockMHz: 250}

// tinyBackend is the reference backend with tinyProfile as its only
// device, registered for this package's tests as "captest".
type tinyBackend struct{ hls.Backend }

func (tinyBackend) Name() string                 { return "captest" }
func (tinyBackend) Devices() []hls.DeviceProfile { return []hls.DeviceProfile{tinyProfile} }
func (tinyBackend) Device(name string) (hls.DeviceProfile, bool) {
	return tinyProfile, name == tinyProfile.Name || name == tinyProfile.Part
}

func init() {
	ref, err := hls.BackendByName(hls.DefaultBackendName)
	if err != nil {
		panic(err)
	}
	hls.RegisterBackend(tinyBackend{ref})
}

var tinyTarget = []hls.Target{{Backend: "captest", Device: "tiny"}}

// With a capacity-gated device, the search must back off from resource-
// hungry pragma configurations instead of accepting the fastest one.
func TestSearchRespectsDeviceCapacity(t *testing.T) {
	src := `
void kernel(int a[64], int b[64]) {
    for (int i = 0; i < 64; i++) {
        b[i] = a[i] * 3 + 1;
    }
}`
	mk := func() fuzz.TestCase {
		in := fuzz.Arg{Ints: make([]int64, 64), Width: 32}
		for i := range in.Ints {
			in.Ints[i] = int64(i % 9)
		}
		return fuzz.TestCase{Args: []fuzz.Arg{in, {Ints: make([]int64, 64), Width: 32}}}
	}
	tests := []fuzz.TestCase{mk()}

	// Default target: the large part leaves room to partition freely.
	free := SearchContext(context.Background(), cparser.MustParse(src), cparser.MustParse(src), "kernel", tests, DefaultOptions())
	if !free.Compatible || !free.BehaviorOK {
		t.Fatalf("unconstrained search failed: %v", free.Remaining)
	}
	freeRes := sim.Estimate(free.Unit)

	// Tiny device: whatever the search accepts must fit.
	opts := DefaultOptions()
	opts.Targets = tinyTarget
	gated := SearchContext(context.Background(), cparser.MustParse(src), cparser.MustParse(src), "kernel", tests, opts)
	if !gated.Compatible || !gated.BehaviorOK {
		t.Fatalf("gated search failed: %v / %v", gated.Remaining, gated.Stats.EditLog)
	}
	gatedRes := sim.Estimate(gated.Unit)
	if ok, over := sim.CheckCapacity(gatedRes, tinyProfile.Cap); !ok {
		t.Errorf("accepted design over-utilizes the device: %v (%s)", over, gatedRes)
	}
	if gatedRes.BRAM > freeRes.BRAM {
		t.Errorf("gated design should not use more BRAM than the free one: %d vs %d",
			gatedRes.BRAM, freeRes.BRAM)
	}
}

// assertOverUtilized checks that a search failed on the implementation
// diagnostic.
func assertOverUtilized(t *testing.T, res Result) {
	t.Helper()
	if res.Compatible {
		t.Fatal("an over-utilizing design was reported compatible")
	}
	for _, d := range res.Remaining {
		if d.Code == "IMPL 200-1" && strings.Contains(d.Message, "over-utilizes") {
			return
		}
	}
	t.Errorf("implementation diagnostic missing: %v", res.Remaining)
}

// An initial design that already exceeds the device fails with the
// implementation diagnostic.
func TestCapacityDiagnosticSurfaces(t *testing.T) {
	src := `
int huge[1000000];
int kernel(int x) {
    huge[0] = x;
    return huge[0];
}`
	opts := DefaultOptions()
	opts.Targets = tinyTarget
	opts.MaxIterations = 4
	res := SearchContext(context.Background(), cparser.MustParse(src), cparser.MustParse(src), "kernel",
		[]fuzz.TestCase{{Args: []fuzz.Arg{{Scalar: true, Ints: []int64{1}, Width: 32}}}}, opts)
	assertOverUtilized(t, res)
}

// An untargeted search runs on the default target, capacity gate
// included: a design too large for xcvu9p is reported as such instead
// of passing unchecked.
func TestUntargetedSearchGatesDefaultDevice(t *testing.T) {
	src := `
int huge[4000000];
int kernel(int x) {
    huge[0] = x;
    return huge[0];
}`
	_, def, err := hls.ResolveTarget(hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := sim.CheckCapacity(sim.Estimate(cparser.MustParse(src)), def.Cap); ok {
		t.Fatal("test design must over-utilize xcvu9p")
	}
	opts := DefaultOptions()
	opts.MaxIterations = 4
	res := SearchContext(context.Background(), cparser.MustParse(src), cparser.MustParse(src), "kernel",
		[]fuzz.TestCase{{Args: []fuzz.Arg{{Scalar: true, Ints: []int64{1}, Width: 32}}}}, opts)
	assertOverUtilized(t, res)
	if len(res.PerTarget) != 0 {
		t.Errorf("untargeted search grew a verdict table: %+v", res.PerTarget)
	}
}
