package sim

import (
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/hls"
)

// defaultCap is the registry's default profile's capacity: the paper's
// evaluation part.
func defaultCap(t *testing.T) hls.Capacity {
	t.Helper()
	_, p, err := hls.ResolveTarget(hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	return p.Cap
}

func TestCheckCapacityFitsAndOverflows(t *testing.T) {
	small := hls.Capacity{LUT: 100, FF: 100, DSP: 2, BRAM: 2}
	fits := Resources{LUT: 50, FF: 80, DSP: 1, BRAM: 1}
	ok, over := CheckCapacity(fits, small)
	if !ok || len(over) != 0 {
		t.Errorf("fit: %v %v", ok, over)
	}
	big := Resources{LUT: 500, FF: 80, DSP: 5, BRAM: 1}
	ok, over = CheckCapacity(big, small)
	if ok {
		t.Fatal("overflow not detected")
	}
	joined := strings.Join(over, ",")
	if !strings.Contains(joined, "LUT") || !strings.Contains(joined, "DSP") {
		t.Errorf("over-utilized set %v", over)
	}
}

func TestSubjectsFitTheEvaluationDevice(t *testing.T) {
	u := cparser.MustParse(`
int big[4096];
void kernel(int a[1024], int b[1024]) {
#pragma HLS array_partition variable=a factor=16
    for (int i = 0; i < 1024; i++) {
        b[i] = a[i] * big[i % 4096];
    }
}`)
	r := Estimate(u)
	ok, over := CheckCapacity(r, defaultCap(t))
	if !ok {
		t.Errorf("realistic kernel should fit the VU9P: over %v (%s)", over, r)
	}
}

func TestUtilizationRendering(t *testing.T) {
	s := Utilization(Resources{LUT: 118224, FF: 0, DSP: 684, BRAM: 432}, defaultCap(t))
	if !strings.Contains(s, "LUT 10.0%") || !strings.Contains(s, "DSP 10.0%") {
		t.Errorf("utilization %q", s)
	}
}
