package directive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"ndpbridge/internal/lint/analysis"
	"ndpbridge/internal/lint/analysistest"
	"ndpbridge/internal/lint/directive"
)

// runOn applies the directives analyzer to one source string. The analyzer
// only consults syntax, so no type checking is needed.
func runOn(t *testing.T, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var msgs []string
	pass := &analysis.Pass{
		Analyzer: directive.Analyzer,
		Fset:     fset,
		Files:    []*ast.File{f},
	}
	pass.Report = func(d analysis.Diagnostic) { msgs = append(msgs, d.Message) }
	if err := directive.Analyzer.Run(pass); err != nil {
		t.Fatalf("run: %v", err)
	}
	return msgs
}

// TestUnknownVerb checks that every verb outside Known is reported, typos
// and foreign verbs alike. A parenthesized suffix is part of the verb, so
// alloc(x) is unknown too.
func TestUnknownVerb(t *testing.T) {
	for _, tc := range []struct{ directive, verb string }{
		{"nosnpa typo", "nosnpa"},
		{"seam why", "seam"},
		{"domain(unit) why", "domain(unit)"},
		{"crossdomain why", "crossdomain"},
		{"alloc(x) why", "alloc(x)"},
	} {
		msgs := runOn(t, "package p\n\ntype s struct {\n\ta int //ndplint:"+tc.directive+"\n}\n")
		if len(msgs) != 1 || !strings.Contains(msgs[0], `unknown ndplint directive verb "`+tc.verb+`"`) {
			t.Errorf("//ndplint:%s: got %q, want one unknown-verb diagnostic", tc.directive, msgs)
		}
	}
}

func TestSuppressionWithoutJustification(t *testing.T) {
	msgs := runOn(t, "package p\n\ntype s struct {\n\ta int //ndplint:nosnap\n}\n")
	if len(msgs) != 1 || !strings.Contains(msgs[0], "without a justification") {
		t.Fatalf("got %q, want one missing-justification diagnostic", msgs)
	}
}

func TestTagNeedsNoJustification(t *testing.T) {
	if msgs := runOn(t, "package p\n\n//ndplint:hotpath\nfunc f() {}\n"); len(msgs) != 0 {
		t.Fatalf("got %q, want no diagnostics", msgs)
	}
}

func TestCleanFixture(t *testing.T) {
	analysistest.Run(t, "testdata/src/dirs", directive.Analyzer)
}
