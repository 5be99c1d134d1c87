package check

import (
	"fmt"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/interp"
)

// ---------------------------------------------------------------------------
// Dataflow optimization
//
// Inside a "#pragma HLS dataflow" region, every buffer must obey the
// single-producer single-consumer rule: the same array argument feeding two
// process calls fails dataflow checking (the paper's post 595161).

func (c *checker) checkDataflow() {
	for _, fn := range c.unit.Funcs() {
		if fn.Body == nil || !hasDataflowPragma(fn) {
			continue
		}
		consumers := map[string]int{}
		for _, s := range fn.Body.Stmts {
			es, ok := s.(*cast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*cast.Call)
			if !ok {
				continue
			}
			for _, a := range call.Args {
				if id, ok := a.(*cast.Ident); ok {
					consumers[id.Name]++
				}
			}
		}
		for name, n := range consumers {
			if n > 1 && c.isBufferName(fn, name) {
				c.add(hls.Diagnostic{
					Code: "XFORM 202-712",
					Message: fmt.Sprintf(
						"Argument '%s' failed dataflow checking: a buffer may only be consumed by one process in a dataflow region (used by %d)", name, n),
					Class:   hls.ClassDataflow,
					Subject: name,
				})
			}
		}
	}
}

// isBufferName reports whether name is an array-typed local or parameter
// of fn (streams are exempt: they are the intended dataflow channels).
func (c *checker) isBufferName(fn *cast.FuncDecl, name string) bool {
	for _, p := range fn.Params {
		if p.Name == name {
			rt := ctypes.Resolve(p.Type)
			switch rt.(type) {
			case ctypes.Array, ctypes.Pointer:
				return true
			}
			return false
		}
	}
	found := false
	cast.Inspect(fn, func(n cast.Node) bool {
		if d, ok := n.(*cast.DeclStmt); ok && d.Name == name {
			if _, isArr := ctypes.Resolve(d.Type).(ctypes.Array); isArr {
				found = true
			}
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------------
// Loop parallelization
//
// array_partition factors must divide the array size (XFORM 202-711,
// post 729976's sibling); an unroll factor of 50+ combined with an
// enclosing dataflow region fails pre-synthesis (post 721719); unroll
// factors must not exceed a knowable trip count.

func (c *checker) checkLoops() {
	for _, fn := range c.unit.Funcs() {
		if fn.Body == nil {
			continue
		}
		dataflow := hasDataflowPragma(fn)
		sizes := c.arraySizes(fn)

		for _, p := range fn.Pragmas {
			d := interp.ParsePragma(p.Text)
			if d.Kind == interp.PragmaArrayPartition {
				c.checkPartition(d, sizes, p)
			}
		}

		// Pragmas attached to loops or the function head reappear as child
		// nodes during the walk; skip them in the statement-position case.
		attached := map[*cast.Pragma]bool{}
		for _, p := range fn.Pragmas {
			attached[p] = true
		}
		cast.Inspect(fn, func(n cast.Node) bool {
			switch l := n.(type) {
			case *cast.For:
				for _, p := range l.Pragmas {
					attached[p] = true
				}
			case *cast.While:
				for _, p := range l.Pragmas {
					attached[p] = true
				}
			}
			return true
		})

		cast.Inspect(fn, func(n cast.Node) bool {
			var pragmas []*cast.Pragma
			var trip int
			switch l := n.(type) {
			case *cast.For:
				pragmas = l.Pragmas
				trip = staticTripCount(l)
			case *cast.While:
				pragmas = l.Pragmas
				trip = -1
			case *cast.Pragma:
				// Statement-position pragmas (e.g. array_partition right
				// after the array declaration) are checked in place.
				if attached[l] {
					return true
				}
				d := interp.ParsePragma(l.Text)
				if d.Kind == interp.PragmaArrayPartition {
					c.checkPartition(d, sizes, l)
				}
				return true
			default:
				return true
			}
			for _, p := range pragmas {
				d := interp.ParsePragma(p.Text)
				switch d.Kind {
				case interp.PragmaUnroll:
					if d.Factor >= 50 && dataflow {
						c.add(hls.Diagnostic{
							Code: "HLS 200-70",
							Message: fmt.Sprintf(
								"Pre-synthesis failed: unroll factor %d interacts with the enclosing dataflow region; set an explicit tripcount and reduce the factor", d.Factor),
							Class:   hls.ClassLoopParallel,
							Subject: "unroll",
						})
					}
					if trip > 0 && d.Factor > trip {
						c.add(hls.Diagnostic{
							Code: "XFORM 202-805",
							Message: fmt.Sprintf(
								"unroll factor %d exceeds the loop trip count %d", d.Factor, trip),
							Class:   hls.ClassLoopParallel,
							Subject: "unroll",
						})
					}
					if trip > 0 && d.Factor > 0 && trip%d.Factor != 0 {
						c.add(hls.Diagnostic{
							Code: "XFORM 202-806",
							Message: fmt.Sprintf(
								"loop trip count %d is not a multiple of unroll factor %d", trip, d.Factor),
							Class:   hls.ClassLoopParallel,
							Subject: "unroll",
						})
					}
				case interp.PragmaArrayPartition:
					c.checkPartition(d, sizes, p)
				}
			}
			return true
		})
	}
}

func (c *checker) checkPartition(d interp.PragmaDirective, sizes map[string]int, p *cast.Pragma) {
	switch d.PartitionType {
	case "", "cyclic", "block":
	case "complete":
		// Complete partition needs no factor; only the variable must exist.
		if d.Variable == "" {
			break
		}
		if _, ok := sizes[d.Variable]; !ok {
			c.add(hls.Diagnostic{
				Code: "XFORM 202-711",
				Message: fmt.Sprintf(
					"Array '%s' failed dataflow checking: no array of that name is visible here", d.Variable),
				Class:   hls.ClassLoopParallel,
				Subject: d.Variable,
			})
		}
		return
	default:
		c.add(hls.Diagnostic{
			Code: "XFORM 202-711",
			Message: fmt.Sprintf(
				"array_partition type '%s' is not one of cyclic, block, complete", d.PartitionType),
			Class:   hls.ClassLoopParallel,
			Subject: d.Variable,
		})
		return
	}
	if d.Variable == "" {
		c.add(hls.Diagnostic{
			Code:    "XFORM 202-711",
			Message: "array_partition requires a variable= operand",
			Class:   hls.ClassLoopParallel,
			Subject: "array_partition",
		})
		return
	}
	size, ok := sizes[d.Variable]
	if !ok {
		c.add(hls.Diagnostic{
			Code: "XFORM 202-711",
			Message: fmt.Sprintf(
				"Array '%s' failed dataflow checking: no array of that name is visible here", d.Variable),
			Class:   hls.ClassLoopParallel,
			Subject: d.Variable,
		})
		return
	}
	if d.Factor > 0 && size%d.Factor != 0 {
		c.add(hls.Diagnostic{
			Code: "XFORM 202-711",
			Message: fmt.Sprintf(
				"Array '%s' failed dataflow checking: size %d is not a multiple of partition factor %d", d.Variable, size, d.Factor),
			Class:   hls.ClassLoopParallel,
			Subject: d.Variable,
		})
	}
}

// arraySizes maps array names visible in fn (params, locals, globals) to
// their flattened outer dimension.
func (c *checker) arraySizes(fn *cast.FuncDecl) map[string]int {
	out := map[string]int{}
	record := func(name string, t ctypes.Type) {
		if arr, ok := ctypes.Resolve(t).(ctypes.Array); ok && arr.Len > 0 {
			out[name] = arr.Len
		}
	}
	for _, d := range c.unit.Decls {
		if v, ok := d.(*cast.VarDecl); ok {
			record(v.Name, v.Type)
		}
	}
	for _, p := range fn.Params {
		record(p.Name, p.Type)
	}
	cast.Inspect(fn, func(n cast.Node) bool {
		if d, ok := n.(*cast.DeclStmt); ok {
			record(d.Name, d.Type)
		}
		return true
	})
	return out
}

// staticTripCount extracts the trip count of the canonical counted loop
// "for (i = 0; i < N; i++)", returning -1 when it cannot be determined.
func staticTripCount(f *cast.For) int {
	cond, ok := f.Cond.(*cast.Binary)
	if !ok {
		return -1
	}
	lit, ok := cond.R.(*cast.IntLit)
	if !ok {
		return -1
	}
	start := int64(0)
	switch init := f.Init.(type) {
	case *cast.DeclStmt:
		if il, ok := init.Init.(*cast.IntLit); ok {
			start = il.Value
		} else if init.Init != nil {
			return -1
		}
	case *cast.ExprStmt:
		if as, ok := init.X.(*cast.Assign); ok {
			if il, ok := as.R.(*cast.IntLit); ok {
				start = il.Value
			} else {
				return -1
			}
		}
	}
	switch cond.Op.String() {
	case "<":
		return int(lit.Value - start)
	case "<=":
		return int(lit.Value - start + 1)
	}
	return -1
}
