package heterogen

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsFlagReference is the docs gate behind `make docs-check`: the
// README's consolidated CLI reference table (the region between the
// flag-reference markers) and the flags the commands register must
// agree in both directions. The test builds every cmd/ binary and reads
// each command's flags from its -h listing: every binary, and each of
// heterogen's subcommands as "heterogen fuzz" and "heterogen check".
// Every flag a command registers must have a shared row or a row keyed
// by the command (a subcommand's also by its binary); every per-binary
// row must name flags its command registers; every shared row must
// list exactly the binaries that register its flag ("all binaries"
// when every one does). Adding a flag without documenting it, or
// removing one without deleting its row, fails the build.
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

	mains, _ := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if len(mains) == 0 {
		t.Fatal("no cmd/*/main.go files found")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	commands := [][]string{{"heterogen", "fuzz"}, {"heterogen", "check"}}
	for _, main := range mains {
		commands = append(commands, []string{filepath.Base(filepath.Dir(main))})
	}

	// registered maps each command to the flags it registers, and
	// byBinary each binary to the flags any of its commands registers.
	registered := map[string]map[string]bool{}
	byBinary := map[string]map[string]bool{}
	// PrintDefaults lists each flag on a line of its own as "  -name".
	listed := regexp.MustCompile(`(?m)^  -([a-z0-9][a-z0-9-]*)`)
	for _, argv := range commands {
		command := strings.Join(argv, " ")
		out, err := exec.Command(filepath.Join(bin, argv[0]), append(argv[1:], "-h")...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", command, err, out)
		}
		names := listed.FindAllStringSubmatch(string(out), -1)
		if len(names) == 0 {
			t.Errorf("%s -h lists no flags; the listing regexp is stale", command)
		}
		registered[command] = map[string]bool{}
		if byBinary[argv[0]] == nil {
			byBinary[argv[0]] = map[string]bool{}
		}
		for _, m := range names {
			registered[command][m[1]] = true
			byBinary[argv[0]][m[1]] = true
		}
	}

	// The reverse direction: every row names flags that exist. A shared
	// row starts with its flag; a per-binary row with its command.
	// shared and documented collect the rows for the forward direction.
	shared := map[string]bool{}
	documented := map[string]map[string]bool{}
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
			binaries := strings.Split(second, ", ")
			if second == "all binaries" {
				binaries = binaries[:0]
				for b := range byBinary {
					binaries = append(binaries, b)
				}
			}
			slices.Sort(binaries)
			for _, m := range nameRe.FindAllStringSubmatch(first, -1) {
				rows++
				shared[m[1]] = true
				var want []string
				for b, flags := range byBinary {
					if flags[m[1]] {
						want = append(want, b)
					}
				}
				slices.Sort(want)
				if !slices.Equal(binaries, want) {
					t.Errorf("README shared row -%s lists %v; the binaries that register it are %v", m[1], binaries, want)
				}
			}
		case strings.HasPrefix(second, "`-"):
			flags, ok := registered[first]
			if !ok {
				t.Errorf("README row for %q: there is no such command", first)
				continue
			}
			if documented[first] == nil {
				documented[first] = map[string]bool{}
			}
			for _, m := range nameRe.FindAllStringSubmatch(second, -1) {
				rows++
				documented[first][m[1]] = true
				if !flags[m[1]] {
					t.Errorf("README row %s -%s: %s registers no such flag", first, m[1], first)
				}
			}
		}
	}
	if rows == 0 {
		t.Error("found no flag rows in the README CLI reference table; the row parser is stale")
	}

	// The forward direction: every registered flag has a row.
	for _, argv := range commands {
		command := strings.Join(argv, " ")
		for name := range registered[command] {
			if !shared[name] && !documented[command][name] && !documented[argv[0]][name] {
				t.Errorf("%s: flag -%s has neither a shared row nor a %s row in the README CLI reference table", command, name, command)
			}
		}
	}
}

// TestDocsMakeTargets is the second docs gate behind `make docs-check`:
// every make target that the docs or the CI workflow name must exist,
// so a deleted target cannot linger. A mention is "make X" in backticks
// (a line break, in YAML with a comment marker, may split it) or
// opening a line or a CI step.
func TestDocsMakeTargets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	docs, _ := filepath.Glob(filepath.Join("docs", "*.md"))
	docs = append(docs, "README.md", "CONTRIBUTING.md", "EXPERIMENTS.md", "DESIGN.md",
		filepath.Join(".claude", "skills", "verify", "SKILL.md"), filepath.Join(".github", "workflows", "ci.yml"))
	mention := regexp.MustCompile("(?m)(?:`|^\\s*(?:- run: )?)make[\\s#]+([a-z][a-z0-9-]*)")
	mentions := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllStringSubmatch(string(text), -1) {
			mentions++
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which is not a Makefile target", doc, m[1])
			}
		}
	}
	if mentions == 0 {
		t.Error("found no make mentions in the docs; the mention pattern is stale")
	}
}
