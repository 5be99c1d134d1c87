// Package stylecheck implements the lightweight coding-style validator —
// HeteroGen's stand-in for the "LLVM frontend for HLS" the paper uses to
// reject repair candidates before paying for a full HLS compilation.
//
// A style check costs hls.StyleCheckSeconds of virtual time versus minutes
// for a full compile, and it catches the structural mistakes candidate
// edits most often make: pragmas with malformed operands, pragmas whose
// referenced variable is not in scope, partition factors that cannot
// divide the array, unroll pragmas outside any loop, and dataflow pragmas
// below function level. Candidates that fail here are rejected without
// invoking the full toolchain (§5.3, "HLS Coding Style Validity").
package stylecheck

import (
	"fmt"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/hls"
)

// Run style-checks the unit and returns the violations found.
func Run(u *cast.Unit, cfg hls.Config) hls.Report {
	s := &styler{unit: u, cfg: cfg}
	s.checkUnit()
	return hls.Report{Diags: s.diags, OK: len(s.diags) == 0}
}

type styler struct {
	unit  *cast.Unit
	cfg   hls.Config
	diags []hls.Diagnostic
}

func (s *styler) add(code, msg string, class hls.ErrorClass, subject string) {
	s.diags = append(s.diags, hls.Diagnostic{
		Code: code, Message: msg, Class: class, Subject: subject,
	})
}

func (s *styler) checkUnit() {
	for _, d := range s.unit.Decls {
		switch x := d.(type) {
		case *cast.FuncDecl:
			s.checkFunc(x)
		case *cast.PragmaDecl:
			dir := cast.ParsePragma(x.Text)
			if dir.IsHLS && dir.Kind != cast.PragmaTop {
				s.add("STYLE-1", fmt.Sprintf(
					"HLS pragma %q at file scope: directives must appear inside the function or loop they configure", x.Text),
					hls.ClassLoopParallel, x.Text)
			}
		case *cast.StructDecl:
			for _, m := range x.Methods {
				s.checkFunc(m)
			}
		}
	}
}

func (s *styler) checkFunc(fn *cast.FuncDecl) {
	if fn.Body == nil {
		return
	}
	sizes := s.unit.ArraySizes(fn)

	// Function-head pragmas: dataflow, interface, array_partition are
	// legal here; unroll and pipeline are loop-level directives.
	for _, p := range fn.Pragmas {
		d := cast.ParsePragma(p.Text)
		if !d.IsHLS {
			continue
		}
		switch d.Kind {
		case cast.PragmaUnroll:
			s.add("STYLE-2", fmt.Sprintf(
				"'#pragma HLS unroll' must appear within a loop body, not at the head of function '%s'", fn.Name),
				hls.ClassLoopParallel, fn.Name)
		case cast.PragmaPipeline:
			// Pipeline at function level is legal (function pipelining).
		case cast.PragmaArrayPartition:
			s.checkPartitionOperands(d, sizes, fn.Name)
		case cast.PragmaUnknown:
			s.add("STYLE-3", fmt.Sprintf(
				"unknown HLS directive %q in function '%s'", d.Raw, fn.Name),
				hls.ClassLoopParallel, fn.Name)
		}
	}

	// Loop pragmas and misplaced statement-position pragmas. Pragmas
	// attached to a loop (or the function head) are visited as children
	// by the walker too, so collect them first and skip them in the
	// statement-position case.
	attached := map[*cast.Pragma]bool{}
	for _, p := range fn.Pragmas {
		attached[p] = true
	}
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.For:
			for _, p := range x.Pragmas {
				attached[p] = true
			}
		case *cast.While:
			for _, p := range x.Pragmas {
				attached[p] = true
			}
		}
		return true
	})
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.For:
			s.checkLoopPragmas(x.Pragmas, sizes, fn.Name)
		case *cast.While:
			s.checkLoopPragmas(x.Pragmas, sizes, fn.Name)
		case *cast.Pragma:
			if attached[x] {
				return true
			}
			// A pragma surviving in plain statement position was not
			// attached to any loop or function head: misplaced.
			d := cast.ParsePragma(x.Text)
			if d.IsHLS {
				switch d.Kind {
				case cast.PragmaUnroll, cast.PragmaPipeline:
					s.add("STYLE-2", fmt.Sprintf(
						"'#pragma HLS %s' must appear as the first directive of a loop body", kindName(d.Kind)),
						hls.ClassLoopParallel, fn.Name)
				case cast.PragmaDataflow:
					s.add("STYLE-4",
						"'#pragma HLS dataflow' must appear at the head of a function body",
						hls.ClassDataflow, fn.Name)
				case cast.PragmaArrayPartition:
					s.checkPartitionOperands(d, sizes, fn.Name)
				}
			}
		}
		return true
	})
}

func (s *styler) checkLoopPragmas(pragmas []*cast.Pragma, sizes map[string]int, fnName string) {
	seen := map[cast.PragmaKind]bool{}
	for _, p := range pragmas {
		d := cast.ParsePragma(p.Text)
		if !d.IsHLS {
			continue
		}
		if seen[d.Kind] {
			s.add("STYLE-5", fmt.Sprintf(
				"duplicate '#pragma HLS %s' on the same loop", kindName(d.Kind)),
				hls.ClassLoopParallel, fnName)
		}
		seen[d.Kind] = true
		switch d.Kind {
		case cast.PragmaUnroll:
			if d.Factor < 0 {
				s.add("STYLE-6", "unroll factor must be positive",
					hls.ClassLoopParallel, fnName)
			}
		case cast.PragmaPipeline:
			if d.Factor < 0 {
				s.add("STYLE-6", "pipeline II must be positive",
					hls.ClassLoopParallel, fnName)
			}
		case cast.PragmaDataflow:
			s.add("STYLE-4",
				"'#pragma HLS dataflow' applies to function bodies, not loops",
				hls.ClassDataflow, fnName)
		case cast.PragmaArrayPartition:
			s.checkPartitionOperands(d, sizes, fnName)
		}
	}
}

func (s *styler) checkPartitionOperands(d cast.PragmaDirective, sizes map[string]int, fnName string) {
	switch d.PartitionType {
	case "", "cyclic", "block", "complete":
	default:
		s.add("STYLE-10", fmt.Sprintf(
			"array_partition type '%s' is not one of cyclic, block, complete", d.PartitionType),
			hls.ClassLoopParallel, fnName)
		return
	}
	if d.Variable == "" {
		s.add("STYLE-7", "array_partition requires variable=<name>",
			hls.ClassLoopParallel, fnName)
		return
	}
	size, ok := sizes[d.Variable]
	if !ok {
		s.add("STYLE-8", fmt.Sprintf(
			"array_partition names '%s', which is not an array in scope of '%s'", d.Variable, fnName),
			hls.ClassLoopParallel, d.Variable)
		return
	}
	if d.PartitionType == "complete" {
		return // complete partition ignores the factor
	}
	if d.Factor > 0 && size%d.Factor != 0 {
		s.add("STYLE-9", fmt.Sprintf(
			"array '%s' of size %d cannot be partitioned by factor %d", d.Variable, size, d.Factor),
			hls.ClassLoopParallel, d.Variable)
	}
}

func kindName(k cast.PragmaKind) string {
	switch k {
	case cast.PragmaUnroll:
		return "unroll"
	case cast.PragmaPipeline:
		return "pipeline"
	case cast.PragmaDataflow:
		return "dataflow"
	case cast.PragmaArrayPartition:
		return "array_partition"
	}
	return "directive"
}
