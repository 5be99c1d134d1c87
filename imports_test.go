package heterogen

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckersDoNotImportInterp keeps the static checkers and the
// program generator off the interpreter: they read pragma directives,
// expression types and array sizes from internal/cast, and importing
// internal/interp for them would pull the whole interpreter into every
// tool that only checks code. The walk follows this module's non-test
// imports transitively and names the first chain that reaches it.
func TestCheckersDoNotImportInterp(t *testing.T) {
	const module = "github.com/hetero/heterogen/"
	const banned = module + "internal/interp"
	for _, from := range []string{"internal/hls/check", "internal/hls/stylecheck", "internal/progen"} {
		if chain := importChain(t, module, module+from, banned); chain != nil {
			t.Errorf("%s imports internal/interp: %s", from, strings.Join(chain, " -> "))
		}
	}
}

// importChain walks the module-internal imports of pkg breadth-first and
// returns the shortest import chain from pkg to target, or nil when
// target is not reached.
func importChain(t *testing.T, module, pkg, target string) []string {
	t.Helper()
	parent := map[string]string{pkg: ""}
	for queue := []string{pkg}; len(queue) > 0; queue = queue[1:] {
		p := queue[0]
		if p == target {
			var chain []string
			for ; p != ""; p = parent[p] {
				chain = append([]string{strings.TrimPrefix(p, module)}, chain...)
			}
			return chain
		}
		bp, err := build.ImportDir(filepath.FromSlash(strings.TrimPrefix(p, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, imp := range bp.Imports {
			if _, seen := parent[imp]; !seen && strings.HasPrefix(imp, module) {
				parent[imp] = p
				queue = append(queue, imp)
			}
		}
	}
	return nil
}
