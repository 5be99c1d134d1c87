package difftest

import (
	"math"
	"testing"

	"github.com/hetero/heterogen/internal/interp"
)

// Float comparison under the differential-testing tolerance: edge
// cases a naive |a-b| <= tol*(1+max) formula gets wrong. A kernel that
// deterministically produces NaN or ±Inf on both machines is agreement;
// a non-finite value against anything else is divergence.
func TestFloatComparisonEdgeCases(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	tol := FloatTolerance
	cases := []struct {
		name string
		a, b float64
		want bool
	}{
		{"identical", 1.5, 1.5, true},
		{"both NaN", nan, nan, true},
		{"NaN vs number", nan, 1.0, false},
		{"number vs NaN", 0.0, nan, false},
		{"NaN vs +Inf", nan, inf, false},
		{"both +Inf", inf, inf, true},
		{"both -Inf", -inf, -inf, true},
		{"+Inf vs -Inf", inf, -inf, false},
		{"+Inf vs finite", inf, 1e308, false},
		{"-Inf vs finite", -inf, -1e308, false},
		{"finite vs +Inf", 42.0, inf, false},
		{"signed zero", math.Copysign(0, -1), 0.0, true},
		{"signed zero reversed", 0.0, math.Copysign(0, -1), true},
		{"negative zero vs tiny", math.Copysign(0, -1), tol / 2, true},

		// Tolerance boundary: the acceptance bound for values near zero
		// is diff <= tol*(1+mag). At mag ~ 0 that is tol itself.
		{"at tolerance", 0.0, tol, true},
		{"just past tolerance", 0.0, tol * (1 + tol) * 1.01, false},
		{"well past tolerance", 0.0, tol * 3, false},
		// Relative scaling: large magnitudes widen the bound.
		{"relative within", 1e6, 1e6 * (1 + tol/2), true},
		{"relative beyond", 1e6, 1e6 * (1 + 3*tol), false},
		// Symmetry.
		{"symmetric within", 1e6 * (1 + tol/2), 1e6, true},
		{"symmetric beyond", 1e6 * (1 + 3*tol), 1e6, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := interp.FloatValue(tc.a), interp.FloatValue(tc.b)
			if got := interp.Equal(a, b, tol); got != tc.want {
				t.Errorf("Equal(%v, %v, %v) = %v, want %v", tc.a, tc.b, tol, got, tc.want)
			}
			if got := interp.Equal(b, a, tol); got != tc.want {
				t.Errorf("Equal(%v, %v, %v) = %v, want %v (asymmetric)", tc.b, tc.a, tol, got, tc.want)
			}
		})
	}
}

// Non-finite floats nested in structs follow the same rules: the
// recursive struct comparison must not re-introduce NaN != NaN.
func TestFloatComparisonInStructs(t *testing.T) {
	nan := interp.FloatValue(math.NaN())
	structOf := func(fields ...interp.Value) interp.Value {
		return interp.Value{Kind: interp.VStruct, Aggregate: &interp.Aggregate{Fields: fields}}
	}
	sa := structOf(nan, interp.IntValue(3))
	sb := structOf(nan, interp.IntValue(3))
	if !interp.Equal(sa, sb, FloatTolerance) {
		t.Error("structs with matching NaN fields compare unequal")
	}
	sc := structOf(interp.FloatValue(0), interp.IntValue(3))
	if interp.Equal(sa, sc, FloatTolerance) {
		t.Error("NaN field compared equal to zero")
	}
}

// A float compared against an int goes through the float path (HLS
// type conversion changes value kinds, not behaviour).
func TestFloatIntMixedComparison(t *testing.T) {
	if !interp.Equal(interp.FloatValue(7), interp.IntValue(7), FloatTolerance) {
		t.Error("float 7 != int 7")
	}
	if interp.Equal(interp.FloatValue(math.Inf(1)), interp.IntValue(7), FloatTolerance) {
		t.Error("+Inf compared equal to int 7")
	}
}
