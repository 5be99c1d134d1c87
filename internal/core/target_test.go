package core

import (
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/hls"
)

// bramHeavy sits between the zc706 and xcvu9p BRAM envelopes:
// 1,200,000 ints is ~2084 18Kb blocks, over the Zynq-7045's 1090 and
// comfortably inside the VU9P's 4320.
const bramHeavy = `
int huge[1200000];
int kernel(int x) {
    huge[0] = x;
    return huge[0];
}`

// TestSimulateHonorsDeviceProfile is the regression test for the
// silently-ignored device bug: the resource-fit gate must pull its
// capacity table from the named profile, so the same design fits the
// default part and overflows the small embedded one.
func TestSimulateHonorsDeviceProfile(t *testing.T) {
	targets, err := hls.ParseTargets([]string{"vivado_hls:xcvu9p", "vivado_hls:zc706"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(bramHeavy, Options{Kernel: "kernel", Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerTarget) != 2 {
		t.Fatalf("PerTarget has %d entries, want 2", len(rep.PerTarget))
	}
	big, small := rep.PerTarget[0], rep.PerTarget[1]
	if !big.Fits {
		t.Errorf("xcvu9p: design should fit (%s): over %v", big.Utilization, big.Over)
	}
	if small.Fits {
		t.Errorf("zc706: design should over-utilize the part (%s)", small.Utilization)
	}
	found := false
	for _, axis := range small.Over {
		if axis == "BRAM" {
			found = true
		}
	}
	if !found {
		t.Errorf("zc706 overflow axes = %v, want BRAM", small.Over)
	}
}

// TestSimulateUnknownDeviceErrors: an unknown backend or device name is
// an explicit configuration error, never a silent fall-back to the
// default capacity table.
func TestSimulateUnknownDeviceErrors(t *testing.T) {
	cases := []hls.Target{
		{Backend: "vivado_hls", Device: "nope"},
		{Backend: "quartus", Device: "xcvu9p"},
	}
	for _, target := range cases {
		_, err := Simulate(bramHeavy, Options{Kernel: "kernel", Targets: []hls.Target{target}})
		if err == nil {
			t.Errorf("Simulate(%s) succeeded, want unknown-target error", target)
			continue
		}
		if !strings.Contains(err.Error(), "unknown") && !strings.Contains(err.Error(), "no device profile") {
			t.Errorf("Simulate(%s) error %q does not name the unknown component", target, err)
		}
	}
}
