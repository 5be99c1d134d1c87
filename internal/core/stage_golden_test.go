package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/subjects"
)

// testdata/golden/stages.json records what the standalone check and
// simulate stages answer for P2, P3, the Figure 2 kernel and bramHeavy
// under three target sets (none, the default target named, and one
// target per shipped toolchain dialect with the small zc706 part among
// them): every per-target check report and every simulate field
// (resources; per target its name, fit, overflow axes, utilization,
// part and capacity), plus the error texts for an unknown backend and
// an unknown device, and every entry point's error text for a source
// that does not parse and, where the stage checks the kernel, for an
// unknown kernel. Regenerate with `make golden` only for an intended
// behaviour change.

type stageDiag struct {
	Code    string `json:"code"`
	Class   string `json:"class"`
	Subject string `json:"subject,omitempty"`
	Message string `json:"message"`
}

type stageCheck struct {
	Target      string      `json:"target"`
	OK          bool        `json:"ok"`
	Diagnostics []stageDiag `json:"diagnostics"`
}

type stageCap struct {
	LUT  int `json:"lut"`
	FF   int `json:"ff"`
	DSP  int `json:"dsp"`
	BRAM int `json:"bram"`
}

type stageFit struct {
	Target      string   `json:"target"`
	Fits        bool     `json:"fits"`
	Over        []string `json:"over"`
	Utilization string   `json:"utilization"`
	Part        string   `json:"part"`
	Capacity    stageCap `json:"capacity"`
}

type stageRun struct {
	Subject   string        `json:"subject"`
	Targets   string        `json:"targets"`
	Check     []stageCheck  `json:"check"`
	Resources sim.Resources `json:"resources"`
	Simulate  []stageFit    `json:"simulate"`
}

type stageError struct {
	Target   string `json:"target"`
	Check    string `json:"check"`
	Simulate string `json:"simulate"`
}

// entryError is one entry point's error texts for a source that does
// not parse and for an unknown kernel (empty when the stage does not
// check the kernel).
type entryError struct {
	Stage  string `json:"stage"`
	Parse  string `json:"parse"`
	Kernel string `json:"kernel,omitempty"`
}

type stageRecord struct {
	Runs        []stageRun   `json:"runs"`
	Errors      []stageError `json:"errors"`
	EntryErrors []entryError `json:"entry_errors"`
}

func stageRecordFor(t *testing.T) stageRecord {
	type subject struct{ id, kernel, src string }
	var subs []subject
	for _, id := range []string{"P2", "P3"} {
		s, err := subjects.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, subject{id, s.Kernel, s.Source})
	}
	subs = append(subs, subject{"fig2", "kernel", figure2Kernel}, subject{"bramHeavy", "kernel", bramHeavy})

	var rec stageRecord
	for _, s := range subs {
		for _, spec := range []string{"", "vivado_hls:xcvu9p", "vivado_hls:xcvu9p,vivado_hls:zc706,vitis:aws_f1"} {
			opts := Options{Kernel: s.kernel}
			if spec != "" {
				ts, err := hls.ParseTargets(strings.Split(spec, ","))
				if err != nil {
					t.Fatal(err)
				}
				opts.Targets = ts
			}
			run := stageRun{Subject: s.id, Targets: spec}
			reps, err := Check(s.src, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range reps {
				c := stageCheck{Target: tr.Target, OK: tr.Report.OK, Diagnostics: []stageDiag{}}
				for _, d := range tr.Report.Diags {
					c.Diagnostics = append(c.Diagnostics, stageDiag{Code: d.Code, Class: d.Class.String(), Subject: d.Subject, Message: d.Message})
				}
				run.Check = append(run.Check, c)
			}
			sr, err := Simulate(s.src, opts)
			if err != nil {
				t.Fatal(err)
			}
			run.Resources = sr.Resources
			for _, f := range sr.PerTarget {
				run.Simulate = append(run.Simulate, stageFit{
					Target: f.Target, Fits: f.Fits, Over: f.Over, Utilization: f.Utilization,
					Part: f.Device.Part,
					Capacity: stageCap{LUT: f.Device.Cap.LUT, FF: f.Device.Cap.FF,
						DSP: f.Device.Cap.DSP, BRAM: f.Device.Cap.BRAM},
				})
			}
			rec.Runs = append(rec.Runs, run)
		}
	}
	for _, bad := range []hls.Target{{Backend: "quartus", Device: "xcvu9p"}, {Backend: "vivado_hls", Device: "nope"}} {
		opts := Options{Kernel: "kernel", Targets: []hls.Target{bad}}
		e := stageError{Target: bad.String()}
		if _, err := Check(bramHeavy, opts); err != nil {
			e.Check = err.Error()
		}
		if _, err := Simulate(bramHeavy, opts); err != nil {
			e.Simulate = err.Error()
		}
		rec.Errors = append(rec.Errors, e)
	}
	rec.EntryErrors = entryErrorsFor(t)
	return rec
}

// entryErrorsFor records what every entry point says for an unparsable
// source and an unknown kernel. The stage under test only fails, so
// none of them runs a fuzz campaign or a repair search.
func entryErrorsFor(t *testing.T) []entryError {
	stages := []struct {
		name        string
		checkKernel bool
		run         func(src string, opts Options) error
	}{
		{"transpile", true, func(src string, opts Options) error { _, err := Run(src, opts); return err }},
		{"repair", true, func(src string, opts Options) error { _, err := RepairStage(src, opts); return err }},
		{"check", false, func(src string, opts Options) error { _, err := Check(src, opts); return err }},
		{"simulate", false, func(src string, opts Options) error { _, err := Simulate(src, opts); return err }},
		{"fuzz", true, func(src string, opts Options) error {
			_, err := FuzzStage(context.Background(), src, opts)
			return err
		}},
	}
	var out []entryError
	for _, s := range stages {
		e := entryError{Stage: s.name}
		if err := s.run("int f(", Options{Kernel: "f"}); err != nil {
			e.Parse = err.Error()
		} else {
			t.Errorf("%s: an unparsable source gave no error", s.name)
		}
		if s.checkKernel {
			if err := s.run(bramHeavy, Options{Kernel: "nope"}); err != nil {
				e.Kernel = err.Error()
			} else {
				t.Errorf("%s: an unknown kernel gave no error", s.name)
			}
		}
		out = append(out, e)
	}
	return out
}

// TestStageGolden compares the standalone stages' answers with
// testdata/golden/stages.json, byte for byte.
func TestStageGolden(t *testing.T) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(stageRecordFor(t)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "stages.json")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `make golden` to record fixtures)", err)
	}
	if !bytes.Equal(want, b.Bytes()) {
		t.Errorf("%s: stage answers differ from the fixture:\n--- recorded ---\n%s\n--- got ---\n%s", path, want, b.Bytes())
	}
}
