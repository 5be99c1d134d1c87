package heterogen

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsFlagReference is the docs gate behind `make docs-check`: every
// flag any binary registers must appear in the README's consolidated CLI
// reference table (the region between the flag-reference markers). Flags
// are read from the source — flag.X(...) registrations in cmd/*/main.go
// plus every flag of each internal/cliflag family a binary names — so
// adding a flag without documenting it fails the build, and the README
// can never silently drift from the CLIs.
func TestDocsFlagReference(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const startMark = "<!-- flag-reference:start -->"
	const endMark = "<!-- flag-reference:end -->"
	start := strings.Index(string(readme), startMark)
	end := strings.Index(string(readme), endMark)
	if start < 0 || end < 0 || end < start {
		t.Fatalf("README.md is missing the %s / %s markers", startMark, endMark)
	}
	table := string(readme[start:end])

	// The shared flag families, one file each in internal/cliflag: a
	// binary that names a family is held to all of its flags.
	shared := map[string][]string{
		"cliflag.Target": sharedFlagNames(t, filepath.Join("internal", "cliflag", "target.go")),
		"cliflag.Guard":  sharedFlagNames(t, filepath.Join("internal", "cliflag", "guard.go")),
		"cliflag.Run":    sharedFlagNames(t, filepath.Join("internal", "cliflag", "run.go")),
	}

	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no cmd/*/main.go files found")
	}

	// \b keeps calls like cliflag.Open("name", ...) out of the match.
	flagRe := regexp.MustCompile(`\bflag\.[A-Za-z0-9]+\("([^"]+)"`)
	for _, main := range mains {
		src, err := os.ReadFile(main)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{}
		for _, m := range flagRe.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		for ident, flags := range shared {
			if strings.Contains(string(src), ident) {
				names = append(names, flags...)
			}
		}
		if len(names) == 0 {
			t.Errorf("%s: registers no flags; the extraction regexp is stale", main)
		}
		binary := filepath.Base(filepath.Dir(main))
		for _, name := range names {
			// Documented as `-name` or `-name <operand>`; require a
			// boundary after the name so -n can't hide behind -no-cache.
			entry := regexp.MustCompile("`-" + regexp.QuoteMeta(name) + "(`|[^a-z0-9-])")
			if !entry.MatchString(table) {
				t.Errorf("%s: flag -%s is not in the README CLI reference table", binary, name)
			}
		}
	}
}

// sharedFlagNames extracts the flag names a shared flag family
// registers on a FlagSet (fs.StringVar/fs.Var/... calls).
func sharedFlagNames(t *testing.T, path string) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`fs\.[A-Za-z0-9]*\([^,]+, "([^"]+)"`)
	var names []string
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		names = append(names, m[1])
	}
	if len(names) == 0 {
		t.Fatalf("found no shared flags in %s; the extraction regexp is stale", path)
	}
	return names
}
