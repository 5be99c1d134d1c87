// Package profile implements HeteroGen's initial HLS version generation:
// it profiles the original C program under the generated tests to learn
// the value range of every integer variable, then rewrites declarations to
// the tightest HLS types (fpga_uint<N>/fpga_int<N>), and replaces
// unsynthesizable long double declarations with fpga_float<8,71>.
//
// The output is the paper's P_broken: behaviourally identical on the CPU,
// typed for the fabric, and usually still failing synthesizability checks
// that the repair engine then fixes.
package profile

import (
	"fmt"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/interp"
)

// Result describes the generated initial version.
type Result struct {
	Unit *cast.Unit
	// Retyped lists "func.var: old -> new" rewrites for reporting.
	Retyped []string
	// Ranges holds the observed profile.
	Ranges map[string]*interp.Range
}

// SafetyMarginBits widens every estimated bitwidth: the generated tests
// reflect observed ranges, and the paper notes HeteroGen deliberately
// over-estimates rather than truncate unseen values.
const SafetyMarginBits = 1

// Generate profiles the kernel of u over the test suite and returns the
// initial HLS version (a deep copy; u is untouched).
func Generate(u *cast.Unit, kernel string, tests []fuzz.TestCase) (Result, error) {
	in, err := interp.New(u, interp.Options{Profile: true, Code: interp.NewCodebase()})
	if err != nil {
		return Result{}, err
	}
	ran := 0
	for _, tc := range tests {
		if err := in.Reset(); err != nil {
			return Result{}, err
		}
		if _, err := in.CallKernel(kernel, tc.Values()); err != nil {
			continue // crashing tests contribute nothing to ranges
		}
		ran++
	}
	if ran == 0 && len(tests) > 0 {
		return Result{}, fmt.Errorf("profile: no test executed successfully")
	}

	out := cast.CloneUnit(u)
	res := Result{Unit: out, Ranges: in.Profiles}

	for _, d := range out.Decls {
		fn, ok := d.(*cast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		retypeFunc(fn, in.Profiles, &res)
	}
	// Long double globals are retyped unconditionally (no profile needed).
	for _, d := range out.Decls {
		if v, ok := d.(*cast.VarDecl); ok {
			if nt, changed := retypeLongDouble(v.Type); changed {
				res.Retyped = append(res.Retyped,
					fmt.Sprintf("%s: %s -> %s", v.Name, v.Type.C(""), nt.C("")))
				v.Type = nt
			}
		}
	}
	return res, nil
}

func retypeFunc(fn *cast.FuncDecl, profiles map[string]*interp.Range, res *Result) {
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		d, ok := n.(*cast.DeclStmt)
		if !ok {
			return true
		}
		// long double -> fpga_float<8,71> regardless of profile.
		if nt, changed := retypeLongDouble(d.Type); changed {
			res.Retyped = append(res.Retyped,
				fmt.Sprintf("%s.%s: %s -> %s", fn.Name, d.Name, d.Type.C(""), nt.C("")))
			d.Type = nt
			return true
		}
		// Integer narrowing from profile.
		it, ok := ctypes.Resolve(d.Type).(ctypes.Int)
		if !ok {
			return true
		}
		r, ok := profiles[fn.Name+"."+d.Name]
		if !ok || !r.Seen {
			return true
		}
		ft := ctypes.FitInteger(r.Min, r.Max)
		ft.Width += SafetyMarginBits
		if ft.Width >= it.Width {
			return true // no saving
		}
		res.Retyped = append(res.Retyped,
			fmt.Sprintf("%s.%s: %s -> %s (range [%d,%d])",
				fn.Name, d.Name, d.Type.C(""), ft.C(""), r.Min, r.Max))
		d.Type = ft
		return true
	})
}

// retypeLongDouble maps long double (possibly nested in arrays) to the
// default custom float.
func retypeLongDouble(t ctypes.Type) (ctypes.Type, bool) {
	switch u := t.(type) {
	case ctypes.Float:
		if u.FK == ctypes.F80 {
			return ctypes.DefaultFPGAFloat, true
		}
	case ctypes.Array:
		if elem, changed := retypeLongDouble(u.Elem); changed {
			return ctypes.Array{Elem: elem, Len: u.Len}, true
		}
	case ctypes.Pointer:
		if elem, changed := retypeLongDouble(u.Elem); changed {
			return ctypes.Pointer{Elem: elem}, true
		}
	}
	return t, false
}
