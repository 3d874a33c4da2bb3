package seglog

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneDurableLog holds the tree to "one path per concern": the page
// store and the journal reach the shared log, not the site checkpoints'
// package, and the atomic replace — the only os.Rename — lives here.
func TestOneDurableLog(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "repro/internal/storage", "repro/internal/journal").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	for _, dep := range deps {
		if dep == "repro/internal/checkpoint" {
			t.Error("internal/storage or internal/journal depends on internal/checkpoint; the shared code is internal/seglog")
		}
	}
	if !strings.Contains(string(out), "repro/internal/seglog") {
		t.Errorf("internal/seglog not among the dependencies of storage and journal: %v", deps)
	}

	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			// bench/ is its own module, with its own scratch tree.
			hidden := strings.HasPrefix(d.Name(), ".") && rel != "."
			if rel == "bench" || rel == filepath.Join("internal", "seglog") || hidden {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(src, []byte("os.Rename(")) {
			t.Errorf("%s calls os.Rename; replace a file with seglog.Replace", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
