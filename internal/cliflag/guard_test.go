package cliflag

import (
	"flag"
	"testing"
	"time"
)

func TestGuardBuild(t *testing.T) {
	var f Guard
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if g := f.Build(nil, nil); g != nil {
		t.Fatal("all-default flags must build a nil guard")
	}
	if err := fs.Parse([]string{"-chaos", "0.5", "-chaos-seed", "9", "-stage-deadline", "2s"}); err != nil {
		t.Fatal(err)
	}
	g := f.Build(nil, nil)
	if g == nil {
		t.Fatal("configured flags built a nil guard")
	}
	if !g.Injecting() {
		t.Fatal("chaos rate did not install an injector")
	}
	if f.StageDeadline != 2*time.Second {
		t.Fatalf("StageDeadline = %s", f.StageDeadline)
	}
}
