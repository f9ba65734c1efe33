package recoveryblocks

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed names the exported functions and methods under internal/
// that no program code calls but that stay: each is an independent
// reference a test compares against, or a hook a test or perfbench reaches.
var uncalledAllowed = map[string]string{
	"AbsorptionMomentsDense":      "dense reference for the sparse moment solve; the root benchmarks behind BENCH_*.json call it",
	"AbsorptionMomentsSparse":     "sparse moment solve the root benchmarks behind BENCH_*.json time",
	"MeanAbsorptionTimeIterative": "Gauss-Seidel reference the root benchmarks behind BENCH_*.json time",
	"TransientDistribution":       "dense uniformization reference for the transient tests",
	"EnumerateAsync":              "builds the enumerated chain past the lumping cutoff for cross-route tests and benchmarks",
	"IsAbsorbing":                 "structural check the chain-builder tests assert",
	"KSCritical95":                "Kolmogorov-Smirnov bound the distribution tests check against",
	"RK4":                         "ODE reference the transient tests integrate the generator with",
	"OldestLastRP":                "oracle the PRP simulator tests compare against",
	"MulVec":                      "dense reference the sparse and Kronecker operator tests compare against",
	"VecMul":                      "dense reference the sparse and Kronecker operator tests compare against",
	"NNZTerms":                    "term count the Kronecker operator tests pin",
	"EncodeState":                 "state codec kept for the runtime schedule explorer; fuzzed today",
	"DecodeState":                 "state codec kept for the runtime schedule explorer; fuzzed today",
}

// uncalledExempt names methods that other packages call through an
// interface rather than by name.
var uncalledExempt = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoUncalledExports fails on any exported function or method under
// internal/ whose name appears in no non-test Go file of the module, of
// cmd/, of examples/ or of perfbench/ other than in its own declaration.
// The scan is by name, not by type: a name some other code uses keeps
// every declaration of it.
func TestNoUncalledExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct{ name, pos string }
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, dl := range f.Decls {
				fn, ok := dl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() || uncalledExempt[fn.Name.Name] {
					continue
				}
				own[fn.Name] = true
				decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, d := range decls {
		if uses[d.name] == 0 && uncalledAllowed[d.name] == "" {
			bad = append(bad, d.pos+": "+d.name)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s has no caller outside tests", b)
	}
	for name := range uncalledAllowed {
		if uses[name] > 0 {
			t.Errorf("allowlisted %s now has a caller; drop it from uncalledAllowed", name)
		}
	}
}
