package sim

import (
	"math"
	"testing"

	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/interp"
)

func TestScaleLatencyMS(t *testing.T) {
	base := interp.FPGATimeMS(250_000) // 1ms fabric + invoke overhead
	_, def, _ := hls.ResolveTarget(hls.DefaultTarget())
	if got := ScaleLatencyMS(base, def); got != base {
		t.Errorf("250MHz scaling must be the identity: %v != %v", got, base)
	}
	_, zc706, err := hls.ResolveTarget(hls.Target{Backend: "vivado_hls", Device: "zc706"})
	if err != nil {
		t.Fatal(err)
	}
	got := ScaleLatencyMS(base, zc706)
	overhead := interp.FPGAInvokeOverheadUS / 1e3
	want := (base-overhead)*2.5 + overhead
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ScaleLatencyMS(zc706) = %v, want %v", got, want)
	}
	if got <= base {
		t.Error("a 100MHz part must be slower than the 250MHz reference")
	}
}
