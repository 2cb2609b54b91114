// Package analysistest runs an ndplint analyzer over a fixture package and
// checks its diagnostics against `// want "regexp"` comments, mirroring
// x/tools/go/analysis/analysistest on the in-repo mini framework.
//
// Fixtures live under the analyzer's testdata/src/<pkg>/ directory (the
// testdata prefix keeps the go tool from building them). Each expected
// diagnostic is declared on the line it fires:
//
//	rand.Intn(4) // want `global math/rand`
//
// A line may carry several quoted patterns for several diagnostics. Lines
// that produce diagnostics without a matching want, and wants that match no
// diagnostic, both fail the test.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ndpbridge/internal/lint/analysis"
	"ndpbridge/internal/lint/load"
)

// wantRe extracts the quoted or backquoted patterns of a want comment.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the fixture package rooted at dir, applies a, and reports any
// mismatch between produced diagnostics and want comments via t.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := load.Dir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	wants := collectWants(t, pkg)

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer error: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if !consume(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic at %s:%d matching %q", a.Name, w.file, w.line, w.pattern)
		}
	}
}

// collectWants parses every want comment in the fixture.
func collectWants(t *testing.T, pkg *load.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantRe.FindAllString(text, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, q := range quoted {
					pat, err := unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}

func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}

// consume marks the first unmatched want on (file, line) whose pattern
// matches msg.
func consume(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.pattern.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
