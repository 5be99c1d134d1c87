package heterogen

import (
	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
)

// Unit is a parsed C/HLS-C translation unit.
type Unit = cast.Unit

// Parse parses C/HLS-C source into a Unit (useful for inspecting
// programs programmatically).
func Parse(src string) (*Unit, error) { return cparser.Parse(src) }

// PrintUnit renders a unit back to C/HLS-C source.
func PrintUnit(u *Unit) string { return cast.Print(u) }
