package hls

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// This file is the pluggable-backend layer: the vocabulary for naming a
// synthesis target ("backend:device"), the Backend interface each
// simulated vendor toolchain implements (diagnostic dialect, log
// parsing, style-rule set, compile-cost model, device capacity table),
// and the process-wide registry the rest of the system resolves names
// against. The concrete toolchains registered below — vivado_hls (the
// paper's evaluation flow) and vitis — share the checker and simulator
// subpackages; what differs per backend is the diagnostic dialect, the
// cost model, and which device profiles it can target.

// Target names one (backend, device) pair a design should be built for.
// The zero value is not a valid target; use DefaultTarget.
type Target struct {
	// Backend is a registered backend name, e.g. "vivado_hls".
	Backend string
	// Device is a device profile name the backend ships, e.g. "xcvu9p".
	// Full part names (e.g. "xcvu9p-flgb2104-2-i") are accepted too.
	Device string
}

// String renders the canonical "backend:device" form.
func (t Target) String() string { return t.Backend + ":" + t.Device }

// DefaultBackendName is the backend assumed when a target or device is
// named without one — the paper's evaluation flow.
const DefaultBackendName = "vivado_hls"

// DefaultDeviceName is the profile DefaultConfig targets.
const DefaultDeviceName = "xcvu9p"

// DefaultTarget is the single target every pre-target-set call implies:
// the paper's evaluation platform under the default backend.
func DefaultTarget() Target {
	return Target{Backend: DefaultBackendName, Device: DefaultDeviceName}
}

// ParseTarget parses "backend:device" or a bare device name (which
// implies the backend owning that profile, preferring the default
// backend). The empty string is the default target.
func ParseTarget(s string) (Target, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return DefaultTarget(), nil
	}
	if b, d, ok := strings.Cut(s, ":"); ok {
		t := Target{Backend: strings.TrimSpace(b), Device: strings.TrimSpace(d)}
		if t.Backend == "" {
			t.Backend = DefaultBackendName
		}
		if t.Device == "" {
			t.Device = DefaultDeviceName
		}
		if _, _, err := ResolveTarget(t); err != nil {
			return Target{}, err
		}
		return t, nil
	}
	// Bare name: a backend alone selects its default (first) device; a
	// device alone selects the backend that ships it.
	if be, err := BackendByName(s); err == nil {
		devs := be.Devices()
		return Target{Backend: be.Name(), Device: devs[0].Name}, nil
	}
	be, prof, err := findDevice(s)
	if err != nil {
		return Target{}, err
	}
	return Target{Backend: be.Name(), Device: prof.Name}, nil
}

// ParseTargets parses a list of target specs, dropping duplicates while
// preserving first-occurrence order. An empty list parses to nil (the
// caller's untargeted, default-target path).
func ParseTargets(specs []string) ([]Target, error) {
	var out []Target
	seen := map[Target]bool{}
	for _, s := range specs {
		t, err := ParseTarget(s)
		if err != nil {
			return nil, err
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	return out, nil
}

// TargetSetString renders a target set canonically: "+"-joined
// "backend:device" forms in the given order. It is the value stamped
// into trace events (obs.Event.Target) for multi-target runs.
func TargetSetString(ts []Target) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, "+")
}

// Capacity is a device's fabric resource envelope, on the simulator's
// Resources axes (hls cannot import hls/sim); sim.CheckCapacity and
// sim.Utilization gate and render an estimate against it.
type Capacity struct {
	LUT  int
	FF   int
	DSP  int
	BRAM int // 18Kb blocks
}

// DeviceProfile describes one synthesizable part a backend can target.
type DeviceProfile struct {
	// Name is the short profile name used in targets, e.g. "zc706".
	Name string
	// Part is the full vendor part name, e.g. "xcvu9p-flgb2104-2-i".
	Part string
	// Cap is the fabric capacity the resource-fit gate enforces.
	Cap Capacity
	// ClockMHz is the kernel clock the profile closes timing at; the
	// simulator scales latency from the 250 MHz reference model.
	ClockMHz float64
}

// Backend is one simulated vendor HLS toolchain.
type Backend interface {
	// Name is the registry key, e.g. "vivado_hls".
	Name() string
	// Translate rewrites a diagnostic from the reference (Vivado-style)
	// dialect into this backend's dialect. It must be deterministic and
	// must preserve Class and Subject.
	Translate(d Diagnostic) Diagnostic
	// ParseLog extracts diagnostics from toolchain console output in
	// this backend's dialect (the vivadolog-style parser hook).
	ParseLog(log string) []Diagnostic
	// StyleRules lists the pre-compilation style rules the backend's
	// frontend enforces, for reporting.
	StyleRules() []string
	// CompileCost is the backend's virtual cost of one full compilation
	// of a design with the given printed line count.
	CompileCost(lines int) VirtualCost
	// Devices lists the shipped device profiles, default first.
	Devices() []DeviceProfile
	// Device looks up a profile by short name or full part name.
	Device(name string) (DeviceProfile, bool)
}

// ---------------------------------------------------------------------------
// Registry

var backends = map[string]Backend{}

// RegisterBackend adds a backend under its Name; it panics on a
// duplicate (registration is an init-time, programmer-error surface).
func RegisterBackend(b Backend) {
	name := b.Name()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("hls: backend %q registered twice", name))
	}
	if len(b.Devices()) == 0 {
		panic(fmt.Sprintf("hls: backend %q has no device profiles", name))
	}
	backends[name] = b
}

// BackendNames lists registered backends, sorted.
func BackendNames() []string {
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BackendByName resolves a registered backend, with an explicit error
// naming the known backends on a miss.
func BackendByName(name string) (Backend, error) {
	if b, ok := backends[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("hls: unknown backend %q (known: %s)",
		name, strings.Join(BackendNames(), ", "))
}

// ResolveTarget resolves a target to its backend and device profile,
// with explicit errors for unknown backend or device names. An empty
// target resolves to DefaultTarget.
func ResolveTarget(t Target) (Backend, DeviceProfile, error) {
	if t == (Target{}) {
		t = DefaultTarget()
	}
	if t.Backend == "" {
		t.Backend = DefaultBackendName
	}
	b, err := BackendByName(t.Backend)
	if err != nil {
		return nil, DeviceProfile{}, err
	}
	if t.Device == "" {
		return b, b.Devices()[0], nil
	}
	p, ok := b.Device(t.Device)
	if !ok {
		known := make([]string, 0, len(b.Devices()))
		for _, d := range b.Devices() {
			known = append(known, d.Name)
		}
		return nil, DeviceProfile{}, fmt.Errorf(
			"hls: backend %q has no device profile %q (known: %s)",
			t.Backend, t.Device, strings.Join(known, ", "))
	}
	return b, p, nil
}

// ResolvedTarget is one target's registry lookups: its backend and
// device profile.
type ResolvedTarget struct {
	Backend Backend
	Profile DeviceProfile
}

// Name is the target's canonical "backend:device" form.
func (r ResolvedTarget) Name() string {
	return Target{Backend: r.Backend.Name(), Device: r.Profile.Name}.String()
}

// ResolveTargets resolves every target in the set, or DefaultTarget
// alone when the set is empty, failing on the first unknown name.
func ResolveTargets(ts []Target) ([]ResolvedTarget, error) {
	if len(ts) == 0 {
		ts = []Target{DefaultTarget()}
	}
	out := make([]ResolvedTarget, len(ts))
	for i, t := range ts {
		b, p, err := ResolveTarget(t)
		if err != nil {
			return nil, err
		}
		out[i] = ResolvedTarget{Backend: b, Profile: p}
	}
	return out, nil
}

// AllTargets enumerates every shipped (backend, device) pair, default
// backend first, then remaining backends sorted — the set `make
// target-smoke` sweeps.
func AllTargets() []Target {
	var out []Target
	for _, bn := range backendOrder() {
		for _, d := range backends[bn].Devices() {
			out = append(out, Target{Backend: bn, Device: d.Name})
		}
	}
	return out
}

// backendOrder is the deterministic lookup order: the default backend,
// then the rest sorted by name.
func backendOrder() []string {
	var order []string
	if _, ok := backends[DefaultBackendName]; ok {
		order = append(order, DefaultBackendName)
	}
	for _, n := range BackendNames() {
		if n != DefaultBackendName {
			order = append(order, n)
		}
	}
	return order
}

func findDevice(name string) (Backend, DeviceProfile, error) {
	for _, bn := range backendOrder() {
		if p, ok := backends[bn].Device(name); ok {
			return backends[bn], p, nil
		}
	}
	var known []string
	for _, bn := range backendOrder() {
		for _, d := range backends[bn].Devices() {
			known = append(known, d.Name)
		}
	}
	sort.Strings(known)
	known = dedupeSorted(known)
	return nil, DeviceProfile{}, fmt.Errorf("hls: unknown device profile %q (known: %s)",
		name, strings.Join(known, ", "))
}

func dedupeSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// ConfigFor builds the toolchain configuration for one resolved target:
// the profile's part name and clock, with the given top function. For
// the default target it is exactly DefaultConfig.
func ConfigFor(top string, p DeviceProfile) Config {
	return Config{Top: top, Device: p.Part, ClockMHz: p.ClockMHz}
}

// ---------------------------------------------------------------------------
// Concrete backends

// baseBackend factors the device table shared by the concrete backends.
type baseBackend struct {
	name    string
	devices []DeviceProfile
}

func (b *baseBackend) Name() string             { return b.name }
func (b *baseBackend) Devices() []DeviceProfile { return append([]DeviceProfile(nil), b.devices...) }

func (b *baseBackend) Device(name string) (DeviceProfile, bool) {
	for _, d := range b.devices {
		if d.Name == name || d.Part == name {
			return d, true
		}
	}
	return DeviceProfile{}, false
}

// vivadoBackend is the reference toolchain: the dialect every internal
// diagnostic is already written in, the paper's cost model, and the
// evaluation parts.
type vivadoBackend struct{ baseBackend }

func (vivadoBackend) Translate(d Diagnostic) Diagnostic { return d }

func (vivadoBackend) ParseLog(log string) []Diagnostic { return ParseVivadoLog(log) }

func (vivadoBackend) StyleRules() []string {
	return []string{
		"no-dynamic-allocation", "no-recursion", "no-function-pointers",
		"no-unbounded-loops", "top-function-present",
	}
}

func (vivadoBackend) CompileCost(lines int) VirtualCost { return CompileCost(lines) }

// vitisBackend models the successor toolchain: same checker semantics,
// but diagnostics carry the unified "HLS" tool tag, and scheduling is
// slower on the larger default flow (a 20% heavier base compile).
type vitisBackend struct{ baseBackend }

// vitisTag rewrites the leading tool tag of a Vivado-dialect code
// ("XFORM 203-103" → "HLS 203-103"): Vitis folded the per-pass tags
// into one namespace while keeping the numeric identifiers.
var vitisTag = regexp.MustCompile(`^[A-Z]+`)

func (vitisBackend) Translate(d Diagnostic) Diagnostic {
	d.Code = vitisTag.ReplaceAllString(d.Code, "HLS")
	return d
}

func (b vitisBackend) ParseLog(log string) []Diagnostic {
	diags := ParseVivadoLog(log)
	for i := range diags {
		diags[i] = b.Translate(diags[i])
	}
	return diags
}

func (vitisBackend) StyleRules() []string {
	return []string{
		"no-dynamic-allocation", "no-recursion", "no-function-pointers",
		"no-unbounded-loops", "top-function-present", "extern-c-linkage",
	}
}

func (vitisBackend) CompileCost(lines int) VirtualCost {
	return CompileBaseSeconds*6/5 + VirtualCost(lines)*CompilePerLineSeconds
}

// xcvu9pCap is the Virtex UltraScale+ VU9P envelope (the paper's
// evaluation part on the VCU1525 board).
var xcvu9pCap = Capacity{LUT: 1182240, FF: 2364480, DSP: 6840, BRAM: 4320}

func init() {
	RegisterBackend(&vivadoBackend{baseBackend{
		name: "vivado_hls",
		devices: []DeviceProfile{
			{Name: "xcvu9p", Part: "xcvu9p-flgb2104-2-i", Cap: xcvu9pCap, ClockMHz: 250},
			// zc706: the Zynq-7045 evaluation board — a small embedded
			// part that turns the capacity gate into a real constraint.
			{Name: "zc706", Part: "xc7z045-ffg900-2",
				Cap: Capacity{LUT: 218600, FF: 437200, DSP: 900, BRAM: 1090}, ClockMHz: 100},
		},
	}})
	RegisterBackend(&vitisBackend{baseBackend{
		name: "vitis",
		devices: []DeviceProfile{
			// aws_f1: the EC2 F1 shell exposes a VU9P-class fabric, minus
			// the shell's own footprint, at the same 250 MHz kernel clock.
			{Name: "aws_f1", Part: "xcvu9p-flgb2104-2-i-es1",
				Cap: Capacity{LUT: 1075200, FF: 2150400, DSP: 6100, BRAM: 3900}, ClockMHz: 250},
			{Name: "xcvu9p", Part: "xcvu9p-flgb2104-2-i", Cap: xcvu9pCap, ClockMHz: 250},
		},
	}})
}
