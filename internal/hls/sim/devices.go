package sim

import (
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/interp"
)

// ScaleLatencyMS retargets a simulated kernel latency from the 250 MHz
// reference clock (interp.FPGATimeMS) to the profile's clock: the cycle
// count is clock-invariant, so the fabric portion scales inversely with
// frequency while the host invocation overhead stays fixed.
func ScaleLatencyMS(baseMS float64, p hls.DeviceProfile) float64 {
	if p.ClockMHz <= 0 || p.ClockMHz == interp.FPGAMHz {
		return baseMS
	}
	overhead := interp.FPGAInvokeOverheadUS / 1e3
	fabric := baseMS - overhead
	if fabric < 0 {
		fabric = 0
	}
	return fabric*(interp.FPGAMHz/p.ClockMHz) + overhead
}
