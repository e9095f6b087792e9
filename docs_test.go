package sweeper_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// commandDocs are the documents whose commands a reader runs as written:
// the two READMEs and the build-and-run notes kept as SKILL.md files under
// a hidden skills folder. DESIGN.md is left out: its history sections name
// deleted paths on purpose.
func commandDocs(t *testing.T) []string {
	notes, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	return append([]string{"README.md", "results/README.md"}, notes...)
}

var (
	goCmd       = regexp.MustCompile(`\bgo (?:run|build|test|vet)\b(.*)`)
	makeCmd     = regexp.MustCompile(`\bmake ([A-Za-z0-9_-]+)`)
	scenarioArg = regexp.MustCompile(`-scenario[ =]+(\S+)`)
	target      = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
)

// TestDocCommands checks the commands the docs name: every ./path a
// go run, build, test or vet command names exists, every spec file a
// -scenario flag names exists, and every make target is a Makefile target.
func TestDocCommands(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range target.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	for _, doc := range commandDocs(t) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeOf(string(b)) {
			for _, line := range strings.Split(code, "\n") {
				if m := goCmd.FindStringSubmatch(line); m != nil {
					for _, arg := range strings.Fields(m[1]) {
						if !strings.HasPrefix(arg, "./") {
							continue
						}
						p := filepath.Clean(strings.TrimSuffix(arg, "..."))
						if _, err := os.Stat(p); err != nil {
							t.Errorf("%s: %q names a missing path: %v", doc, line, err)
						}
					}
				}
				for _, m := range scenarioArg.FindAllStringSubmatch(line, -1) {
					if _, err := os.Stat(m[1]); err != nil {
						t.Errorf("%s: %q names a missing spec file: %v", doc, line, err)
					}
				}
				for _, m := range makeCmd.FindAllStringSubmatch(line, -1) {
					if !targets[m[1]] {
						t.Errorf("%s: %q names no Makefile target", doc, line)
					}
				}
			}
		}
	}
}

// codeOf returns the fenced code blocks and inline code spans of a
// Markdown document.
func codeOf(doc string) []string {
	var code []string
	for i, part := range strings.Split(doc, "```") {
		if i%2 == 1 {
			code = append(code, part)
			continue
		}
		spans := strings.Split(part, "`")
		for j := 1; j < len(spans); j += 2 {
			code = append(code, spans[j])
		}
	}
	return code
}
