package gates_test

import (
	"go/build"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "github.com/gates-middleware/gates"

// moduleImports maps every package under internal/ to its direct non-test
// imports inside this module.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		var deps []string
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, modulePath+"/") {
				deps = append(deps, strings.TrimPrefix(imp, modulePath+"/"))
			}
		}
		out[filepath.ToSlash(dir)] = deps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// transitiveDeps returns every module package pkg reaches through its
// non-test imports.
func transitiveDeps(graph map[string][]string, pkg string) []string {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(p string) {
		for _, d := range graph[p] {
			if !seen[d] {
				seen[d] = true
				walk(d)
			}
		}
	}
	walk(pkg)
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// TestImportDirection pins which way the internal packages may depend on
// each other. The observability plane sits below everything it watches, the
// data path below the control plane that deploys it, and the experiment
// drivers above all of it.
func TestImportDirection(t *testing.T) {
	graph := moduleImports(t)
	cases := []struct {
		name   string
		from   func(pkg string) bool
		banned func(dep string) bool
	}{
		{
			name: "obs depends on nothing internal but clock",
			from: func(p string) bool { return p == "internal/obs" },
			banned: func(d string) bool {
				return strings.HasPrefix(d, "internal/") && d != "internal/clock"
			},
		},
		{
			name:   "pipeline does not import service",
			from:   func(p string) bool { return p == "internal/pipeline" },
			banned: func(d string) bool { return d == "internal/service" },
		},
		{
			name:   "nothing under internal imports experiments",
			from:   func(p string) bool { return p != "internal/experiments" },
			banned: func(d string) bool { return d == "internal/experiments" },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			matched := 0
			for pkg := range graph {
				if !c.from(pkg) {
					continue
				}
				matched++
				for _, d := range transitiveDeps(graph, pkg) {
					if c.banned(d) {
						t.Errorf("%s imports %s", pkg, d)
					}
				}
			}
			if matched == 0 {
				t.Fatal("rule matches no package")
			}
		})
	}
}
