package cliflag

import (
	"flag"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/hls"
)

// parse registers a Target on a fresh FlagSet and parses args.
func parse(t *testing.T, args ...string) *Target {
	t.Helper()
	var f Target
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse(%v): %v", args, err)
	}
	return &f
}

func TestNoTargetFlagsYieldsEmptySet(t *testing.T) {
	ts, err := parse(t).Targets()
	if err != nil {
		t.Fatalf("Targets: %v", err)
	}
	if ts != nil {
		t.Fatalf("no flags resolved to %v, want nil (legacy path)", ts)
	}
}

func TestTargetFlagForms(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-device", "zc706"}, "vivado_hls:zc706"},
		{[]string{"-device", "xcvu9p-flgb2104-2-i"}, "vivado_hls:xcvu9p"},
		{[]string{"-backend", "vitis"}, "vitis:aws_f1"},
		{[]string{"-backend", "vitis", "-device", "xcvu9p"}, "vitis:xcvu9p"},
		{[]string{"-target", "vivado_hls:zc706", "-target", "vitis:aws_f1"},
			"vivado_hls:zc706+vitis:aws_f1"},
		// Repeated specs dedupe, order preserved.
		{[]string{"-target", "zc706", "-target", "zc706", "-target", "vitis"},
			"vivado_hls:zc706+vitis:aws_f1"},
	}
	for _, c := range cases {
		ts, err := parse(t, c.args...).Targets()
		if err != nil {
			t.Fatalf("Targets(%v): %v", c.args, err)
		}
		if got := hls.TargetSetString(ts); got != c.want {
			t.Errorf("Targets(%v) = %q, want %q", c.args, got, c.want)
		}
	}
}

func TestTargetErrors(t *testing.T) {
	if _, err := parse(t, "-device", "nope").Targets(); err == nil {
		t.Error("unknown device accepted")
	}
	_, err := parse(t, "-backend", "vivado_hls", "-target", "zc706").Targets()
	if err == nil || !strings.Contains(err.Error(), "cannot be combined") {
		t.Errorf("mixing -backend with -target: err = %v, want combination error", err)
	}
}

func TestStampMatcher(t *testing.T) {
	ts, err := parse(t, "-target", "vitis:aws_f1").Targets()
	if err != nil {
		t.Fatal(err)
	}
	match := StampMatcher(ts)
	for stamp, want := range map[string]bool{
		"vitis:aws_f1":                   true,
		"vivado_hls:xcvu9p+vitis:aws_f1": true,
		"vivado_hls:xcvu9p":              false,
		"vitis:aws":                      false,
		"":                               false,
	} {
		if got := match(stamp); got != want {
			t.Errorf("match(%q) = %v, want %v", stamp, got, want)
		}
	}
}
