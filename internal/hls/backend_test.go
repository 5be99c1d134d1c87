package hls

import (
	"strings"
	"testing"
)

func TestBackendRegistry(t *testing.T) {
	names := BackendNames()
	want := []string{"vitis", "vivado_hls"}
	if len(names) != len(want) {
		t.Fatalf("BackendNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BackendNames = %v, want %v", names, want)
		}
	}
	if _, err := BackendByName("sdaccel"); err == nil {
		t.Fatal("unknown backend resolved")
	} else if !strings.Contains(err.Error(), "vivado_hls") {
		t.Errorf("unknown-backend error does not name known backends: %v", err)
	}
}

func TestParseTarget(t *testing.T) {
	cases := []struct {
		in   string
		want Target
	}{
		{"", DefaultTarget()},
		{"vivado_hls:xcvu9p", Target{"vivado_hls", "xcvu9p"}},
		{"vivado_hls:zc706", Target{"vivado_hls", "zc706"}},
		{"vitis:aws_f1", Target{"vitis", "aws_f1"}},
		// Bare device name: owning backend inferred, default backend first.
		{"zc706", Target{"vivado_hls", "zc706"}},
		{"xcvu9p", Target{"vivado_hls", "xcvu9p"}},
		{"aws_f1", Target{"vitis", "aws_f1"}},
		// Legacy full part name.
		{"xcvu9p-flgb2104-2-i", Target{"vivado_hls", "xcvu9p"}},
		{"xc7z045-ffg900-2", Target{"vivado_hls", "zc706"}},
		// Bare backend name: its default device.
		{"vitis", Target{"vitis", "aws_f1"}},
	}
	for _, c := range cases {
		got, err := ParseTarget(c.in)
		if err != nil {
			t.Fatalf("ParseTarget(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseTarget(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"nope", "vivado_hls:nope", "sdaccel:aws_f1"} {
		if _, err := ParseTarget(bad); err == nil {
			t.Errorf("ParseTarget(%q) succeeded, want error", bad)
		}
	}
	if _, err := ParseTarget("u250"); err == nil {
		t.Error("unknown device resolved")
	} else if !strings.Contains(err.Error(), "zc706") {
		t.Errorf("unknown-device error does not list profiles: %v", err)
	}
}

func TestParseTargetsDedupes(t *testing.T) {
	ts, err := ParseTargets([]string{"zc706", "vivado_hls:zc706", "vitis:aws_f1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d targets (%v), want 2", len(ts), ts)
	}
	if got := TargetSetString(ts); got != "vivado_hls:zc706+vitis:aws_f1" {
		t.Errorf("TargetSetString = %q", got)
	}
}

func TestResolveTarget(t *testing.T) {
	be, p, err := ResolveTarget(Target{})
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != DefaultBackendName || p.Name != DefaultDeviceName {
		t.Errorf("zero target resolved to %s:%s", be.Name(), p.Name)
	}
	if p.Part != "xcvu9p-flgb2104-2-i" || p.ClockMHz != 250 {
		t.Errorf("default profile = %+v", p)
	}
	cfg := ConfigFor("kernel", p)
	if cfg != DefaultConfig("kernel") {
		t.Errorf("ConfigFor(default) = %+v, want DefaultConfig", cfg)
	}
	if _, _, err := ResolveTarget(Target{Backend: "vivado_hls", Device: "aws_f1"}); err == nil {
		t.Error("vivado_hls:aws_f1 resolved, want unknown-device error")
	}
}

func TestVitisDialect(t *testing.T) {
	be, err := BackendByName("vitis")
	if err != nil {
		t.Fatal(err)
	}
	d := Diagnostic{Code: "XFORM 203-103", Message: "cannot synthesize", Class: ClassDynamicData, Subject: "p"}
	got := be.Translate(d)
	if got.Code != "HLS 203-103" {
		t.Errorf("Translate code = %q", got.Code)
	}
	if got.Class != d.Class || got.Subject != d.Subject || got.Message != d.Message {
		t.Errorf("Translate altered non-dialect fields: %+v", got)
	}
	diags := be.ParseLog("ERROR: [SYNCHK 91-61] unsupported pointer reinterpretation\n")
	if len(diags) != 1 || !strings.HasPrefix(diags[0].Code, "HLS ") {
		t.Errorf("ParseLog = %+v", diags)
	}

	viv, _ := BackendByName("vivado_hls")
	if viv.Translate(d) != d {
		t.Error("vivado_hls dialect must be the identity")
	}
	if viv.CompileCost(10) != CompileCost(10) {
		t.Error("vivado_hls compile cost must match the reference model")
	}
	if be.CompileCost(10) <= viv.CompileCost(10) {
		t.Error("vitis base compile should be heavier than vivado_hls")
	}
}

func TestAllTargets(t *testing.T) {
	ts := AllTargets()
	if len(ts) != 4 {
		t.Fatalf("AllTargets = %v, want 4 entries", ts)
	}
	if ts[0] != DefaultTarget() {
		t.Errorf("AllTargets[0] = %v, want default target first", ts[0])
	}
	rs, err := ResolveTargets(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Name() != ts[i].String() {
			t.Errorf("ResolveTargets[%d].Name() = %q, want %q", i, r.Name(), ts[i])
		}
	}
}
