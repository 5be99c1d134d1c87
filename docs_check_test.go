package heterogen

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsFlagReference is the docs gate behind `make docs-check`: the
// README's consolidated CLI reference table (the region between the
// flag-reference markers) and the flags the binaries register must
// agree in both directions. Flags are read from the source — flag.X(...)
// registrations in cmd/*/main.go plus every flag of each
// internal/cliflag family a binary names. Every registered flag must
// have a row; every per-binary row must name flags its binary
// registers; every shared row must name flags of a cliflag family or
// some main.go. Adding a flag without documenting it, or removing one
// without deleting its row, fails the build.
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

	// registered maps each binary to the flags it registers; known is
	// every flag of any family or main.go.
	registered := map[string]map[string]bool{}
	known := map[string]bool{}
	for _, flags := range shared {
		for _, name := range flags {
			known[name] = true
		}
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
			known[m[1]] = true
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
		registered[binary] = map[string]bool{}
		for _, name := range names {
			registered[binary][name] = true
			// Documented as `-name` or `-name <operand>`; require a
			// boundary after the name so -n can't hide behind -no-cache.
			entry := regexp.MustCompile("`-" + regexp.QuoteMeta(name) + "(`|[^a-z0-9-])")
			if !entry.MatchString(table) {
				t.Errorf("%s: flag -%s is not in the README CLI reference table", binary, name)
			}
		}
	}

	// The reverse direction: every row names flags that exist. A shared
	// row starts with its flag; a per-binary row with its binary.
	nameRe := regexp.MustCompile("`-([a-z0-9][a-z0-9-]*)")
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		// An escaped pipe (`a` \| `b`) is a cell's text, not a border.
		cells := strings.Split(strings.ReplaceAll(strings.Trim(line, "| "), `\|`, "/"), "|")
		if len(cells) < 2 {
			continue
		}
		first, second := strings.TrimSpace(cells[0]), strings.TrimSpace(cells[1])
		switch {
		case strings.HasPrefix(first, "`-"):
			for _, m := range nameRe.FindAllStringSubmatch(first, -1) {
				rows++
				if !known[m[1]] {
					t.Errorf("README shared row -%s: no cliflag family or cmd/*/main.go registers it", m[1])
				}
			}
		case strings.HasPrefix(second, "`-"):
			flags, ok := registered[first]
			if !ok {
				t.Errorf("README row for binary %q: there is no cmd/%s/main.go", first, first)
				continue
			}
			for _, m := range nameRe.FindAllStringSubmatch(second, -1) {
				rows++
				if !flags[m[1]] {
					t.Errorf("README row %s -%s: %s registers no such flag", first, m[1], first)
				}
			}
		}
	}
	if rows == 0 {
		t.Error("found no flag rows in the README CLI reference table; the row parser is stale")
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
