// Command ndplint is the repository's custom static-analysis suite: it
// enforces the invariants the simulator's results stand on — bit-identical
// determinism at any -j, complete snapshot coverage, allocation-free hot
// paths, and the metrics layer's nil-receiver contract — at lint time
// instead of discovering their violation in a corrupt resume or a drifted
// result table.
//
// Usage:
//
//	ndplint [flags] [packages]
//
// With no packages, ./... is analyzed. Findings print in go vet's
// file:line:col format and make the exit status 1; operational failures
// (unbuildable packages) exit 2.
//
// Flags:
//
//	-cache DIR           replay cached findings for packages whose sources
//	                     and dependency export data are unchanged
//	-list-suppressions   print every //ndplint: suppression with its
//	                     justification instead of analyzing
//	-json                emit findings as a JSON array
//
// The suite runs on the standard library alone (see internal/lint): the
// repo builds with no module downloads, so golang.org/x/tools is
// deliberately not a dependency.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"ndpbridge/internal/lint/analysis"
	"ndpbridge/internal/lint/determinism"
	"ndpbridge/internal/lint/directive"
	"ndpbridge/internal/lint/hotpath"
	"ndpbridge/internal/lint/load"
	"ndpbridge/internal/lint/nilmetrics"
	"ndpbridge/internal/lint/snapcover"
)

var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	snapcover.Analyzer,
	hotpath.Analyzer,
	nilmetrics.Analyzer,
	directive.Analyzer,
}

// cwd anchors diagnostic paths: findings and the suppression inventory
// render repo-relative so the committed golden files are machine-portable.
var cwd, _ = os.Getwd()

// finding is one rendered diagnostic, also the cache entry format.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	cacheDir := flag.String("cache", "", "directory for the analysis fact cache (empty: no caching)")
	asJSON := flag.Bool("json", false, "emit findings as JSON")
	listSup := flag.Bool("list-suppressions", false, "list every ndplint suppression with its justification")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndplint:", err)
		os.Exit(2)
	}

	if *listSup {
		listSuppressions(pkgs, os.Stdout)
		return
	}

	var all []finding
	for _, pkg := range pkgs {
		fs, err := analyzePkg(pkg, *cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndplint:", err)
			os.Exit(2)
		}
		all = append(all, fs...)
	}

	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []finding{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, "ndplint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range all {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

// analyzePkg runs every analyzer over pkg, consulting the fact cache first.
func analyzePkg(pkg *load.Package, cacheDir string) (fs []finding, err error) {
	var cachePath string
	if cacheDir != "" {
		cachePath = filepath.Join(cacheDir, cacheKey(pkg)+".json")
		if b, err := os.ReadFile(cachePath); err == nil {
			var fs []finding
			if json.Unmarshal(b, &fs) == nil {
				return fs, nil
			}
			// Corrupt entry: fall through and re-analyze.
		}
	}

	fs = []finding{}
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			file := pos.Filename
			if rel, err := filepath.Rel(cwd, file); err == nil && len(rel) < len(file) {
				file = rel
			}
			fs = append(fs, finding{
				File: file, Line: pos.Line, Col: pos.Column,
				Analyzer: a.Name, Message: d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
		}
	}

	if cachePath != "" {
		if err := os.MkdirAll(cacheDir, 0o755); err == nil {
			if b, err := json.Marshal(fs); err == nil {
				// Best-effort: a failed cache write only costs re-analysis.
				_ = os.WriteFile(cachePath, b, 0o644)
			}
		}
	}
	return fs, nil
}

// cacheKey derives the fact-cache key for one package: its content
// fingerprint (own sources + dependency export data) crossed with the
// toolchain and the analyzer suite's versions.
func cacheKey(pkg *load.Package) string {
	h := sha256.New()
	fmt.Fprintf(h, "go %s\n", runtime.Version())
	for _, a := range analyzers {
		fmt.Fprintf(h, "analyzer %s v%d\n", a.Name, a.Version)
	}
	fmt.Fprintf(h, "pkg %s %s\n", pkg.PkgPath, pkg.Fingerprint)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// listSuppressions prints the audited-suppression inventory.
func listSuppressions(pkgs []*load.Package, w io.Writer) {
	n := 0
	for _, pkg := range pkgs {
		m := directive.Parse(pkg.Fset, pkg.Files)
		for _, d := range m.All() {
			if d.IsTag() {
				continue
			}
			file := d.File
			if rel, err := filepath.Rel(cwd, file); err == nil && len(rel) < len(file) {
				file = rel
			}
			fmt.Fprintf(w, "%s:%d: //ndplint:%s %s\n", file, d.Line, d.Verb, d.Justification)
			n++
		}
	}
	fmt.Fprintf(w, "%d suppression(s)\n", n)
}
