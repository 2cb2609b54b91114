package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ndpbridge/internal/lint/load"
)

// repoRoot resolves the module root (two levels above cmd/ndplint) and
// re-anchors the path-rendering base there, so the golden comparison sees the
// same repo-relative paths the committed file carries. The loader runs go list
// in the directory it is given, so the process working directory can stay put.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	old := cwd
	cwd = root
	t.Cleanup(func() { cwd = old })
	return root
}

// TestSuppressionInventoryGolden asserts the audited-suppression inventory
// matches the committed golden file, so every new suppression shows up as a
// reviewable diff. Regenerate with:
//
//	go run ./cmd/ndplint -list-suppressions ./... > results/golden/ndplint-suppressions.txt
func TestSuppressionInventoryGolden(t *testing.T) {
	root := repoRoot(t)

	pkgs, err := load.Packages(root, "./...")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	var buf bytes.Buffer
	listSuppressions(pkgs, &buf)

	want, err := os.ReadFile(filepath.Join(root, "results", "golden", "ndplint-suppressions.txt"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("suppression inventory drifted from results/golden/ndplint-suppressions.txt\n" +
			"regenerate with: go run ./cmd/ndplint -list-suppressions ./... > results/golden/ndplint-suppressions.txt")
	}
}
