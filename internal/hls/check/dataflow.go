package check

import (
	"fmt"
	"sort"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/hls"
)

// ---------------------------------------------------------------------------
// Dataflow optimization
//
// Inside a "#pragma HLS dataflow" region, every buffer must obey the
// single-producer single-consumer rule: the same array argument feeding two
// process calls fails dataflow checking (the paper's post 595161).

func (c *checker) checkDataflow() {
	for _, fn := range c.unit.Funcs() {
		if fn.Body == nil || !fn.HasDataflow() {
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
		// Report buffers by name, never in map order: the repair search
		// builds its candidates in diagnostic order.
		names := make([]string, 0, len(consumers))
		for name := range consumers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if n := consumers[name]; n > 1 && c.isBufferName(fn, name) {
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
		dataflow := fn.HasDataflow()
		sizes := c.unit.ArraySizes(fn)

		for _, p := range fn.Pragmas {
			d := cast.ParsePragma(p.Text)
			if d.Kind == cast.PragmaArrayPartition {
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
				trip = l.TripCount()
			case *cast.While:
				pragmas = l.Pragmas
				trip = -1
			case *cast.Pragma:
				// Statement-position pragmas (e.g. array_partition right
				// after the array declaration) are checked in place.
				if attached[l] {
					return true
				}
				d := cast.ParsePragma(l.Text)
				if d.Kind == cast.PragmaArrayPartition {
					c.checkPartition(d, sizes, l)
				}
				return true
			default:
				return true
			}
			for _, p := range pragmas {
				d := cast.ParsePragma(p.Text)
				switch d.Kind {
				case cast.PragmaUnroll:
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
				case cast.PragmaArrayPartition:
					c.checkPartition(d, sizes, p)
				}
			}
			return true
		})
	}
}

func (c *checker) checkPartition(d cast.PragmaDirective, sizes map[string]int, p *cast.Pragma) {
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
