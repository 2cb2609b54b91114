// Package load turns Go packages into type-checked syntax for ndplint's
// analyzers without any dependency beyond the standard library and the go
// tool itself.
//
// Mechanics: `go list -export -deps -json` resolves the package graph and —
// crucially — compiles export data for every dependency into the build
// cache. Target packages are then parsed from source and type-checked with
// go/types, resolving imports through go/importer's gc reader pointed at
// those export files. This is the same shape as x/tools/go/packages
// (LoadSyntax for targets, export data for deps), reimplemented on the
// standard library so the linter works in hermetic builds.
package load

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked target package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// Fingerprint identifies the package's analysis-relevant content: its
	// own source bytes plus the export data of every transitive dependency.
	// Two loads with equal fingerprints see identical types and syntax, so
	// cached findings can be replayed.
	Fingerprint string
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Deps       []string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over args and decodes the
// JSON stream.
func goList(dir string, args []string) ([]*listPkg, error) {
	cmdArgs := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Deps,DepOnly,Incomplete,Error",
	}, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the importer callback resolving import paths to export
// data files.
func exportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Packages loads and type-checks the non-test source of every package
// matching patterns (e.g. "./..."), resolved relative to dir.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	byPath := make(map[string]*listPkg, len(listed))
	for _, p := range listed {
		byPath[p.ImportPath] = p
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
			registerBaseExport(exports, p)
		}
	}

	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		var files []string
		for _, g := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, g))
		}
		pkg, err := check(lp.ImportPath, lp.Dir, files, exports)
		if err != nil {
			return nil, err
		}
		pkg.Fingerprint = fingerprint(files, lp, byPath)
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// Dir loads the single package formed by every .go file directly inside dir
// (fixture layout: no go list metadata, imports restricted to what the
// surrounding module can resolve — in practice the standard library).
func Dir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no .go files in %s", dir)
	}
	sort.Strings(files)

	// Parse first to learn the import set, then ask the go tool for export
	// data of exactly those packages (plus their deps).
	fset := token.NewFileSet()
	var syntax []*ast.File
	imports := map[string]bool{}
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, af)
		for _, imp := range af.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[p] = true
			}
		}
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		var paths []string
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		listed, err := goList(dir, paths)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
				registerBaseExport(exports, p)
			}
		}
	}
	return checkParsed(filepath.Base(dir), dir, fset, syntax, exports)
}

// registerBaseExport also indexes a build-variant package under its plain
// import path. When a main package carries a PGO profile (default.pgo), `go
// list -export -deps` reports its dependencies as variants like
// "runtime/pprof [module/cmd/tool]"; if that is the only build of the
// package in the listing, a source import of "runtime/pprof" would
// otherwise find no export data. Any variant's export data type-checks
// identically (PGO changes optimization, not API), so first-wins is fine.
func registerBaseExport(exports map[string]string, p *listPkg) {
	i := strings.IndexByte(p.ImportPath, ' ')
	if i <= 0 {
		return
	}
	base := p.ImportPath[:i]
	if _, ok := exports[base]; !ok {
		exports[base] = p.Export
	}
}

// check parses files and type-checks them as one package.
func check(pkgPath, dir string, files []string, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, af)
	}
	return checkParsed(pkgPath, dir, fset, syntax, exports)
}

func checkParsed(pkgPath, dir string, fset *token.FileSet, syntax []*ast.File, exports map[string]string) (*Package, error) {
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", exportLookup(exports)),
	}
	info := newInfo()
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    fset,
		Files:   syntax,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// fingerprint hashes the package's own file contents and the export-data
// identities of its transitive dependencies. Export files live in the build
// cache under content-derived names, so the basename stands in for a hash of
// the dependency's ABI.
func fingerprint(files []string, lp *listPkg, byPath map[string]*listPkg) string {
	h := sha256.New()
	fmt.Fprintf(h, "pkg %s\n", lp.ImportPath)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(h, "unreadable %s %v\n", f, err)
			continue
		}
		fmt.Fprintf(h, "file %s %x\n", filepath.Base(f), sha256.Sum256(b))
	}
	deps := append([]string(nil), lp.Deps...)
	sort.Strings(deps)
	for _, d := range deps {
		if dp := byPath[d]; dp != nil && dp.Export != "" {
			fmt.Fprintf(h, "dep %s %s\n", d, filepath.Base(dp.Export))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
