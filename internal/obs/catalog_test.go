package obs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCatalogComplete walks every Go source file in the repository and
// checks that each literal metric name handed to obs.C resolves against
// the catalog. An uncataloged name silently lands in the runtime section —
// losing its determinism guarantee and its help text — so adding a counter
// without a catalog entry must fail here, not in a golden diff months later.
// (Computed names, e.g. the per-strategy fmt.Sprintf families, are covered
// by their '*'-family entries and by TestReportSectionSplit.)
func TestCatalogComplete(t *testing.T) {
	root := filepath.Join("..", "..")
	call := regexp.MustCompile(`obs\.C\("([^"]+)"\)`)
	selfCall := regexp.MustCompile(`(?m)^\t*C\("([^"]+)"\)`)
	seen := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
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
		for _, m := range call.FindAllStringSubmatch(string(src), -1) {
			seen[m[1]] = append(seen[m[1]], path)
		}
		for _, m := range selfCall.FindAllStringSubmatch(string(src), -1) {
			seen[m[1]] = append(seen[m[1]], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no obs.C call sites found — scanner broken?")
	}
	for name, sites := range seen {
		if _, ok := LookupDef(name); !ok {
			t.Errorf("metric %q (used at %v) has no catalog entry", name, sites)
		}
	}
	// The matrix-free engine's counters are constructed once and cached, so a
	// catalog miss there would never surface through a handle lookup at solve
	// time; pin them explicitly.
	for _, name := range []string{
		"markov_solve_kron_total", "markov_kron_matvecs_total", "markov_krylov_iters_total",
	} {
		d, ok := LookupDef(name)
		if !ok {
			t.Errorf("kron metric %q missing from catalog", name)
			continue
		}
		if d.Runtime {
			t.Errorf("kron metric %q must be deterministic, catalog says runtime", name)
		}
		if _, used := seen[name]; !used {
			t.Errorf("kron metric %q cataloged but no call site found", name)
		}
	}
}
