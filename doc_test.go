package urcgc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"urcgc/internal/core"
	"urcgc/internal/faultrt"
	"urcgc/internal/lifecycle"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
)

// docs are the prose files that cite tests, benchmarks and make targets.
var docs = []string{"DESIGN.md", "EXPERIMENTS.md", "NOTES.md", "README.md"}

// readDocs returns each doc's text by name.
func readDocs(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string, len(docs))
	for _, name := range docs {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

// definedTests returns the name of every Test, Benchmark and Fuzz function
// declared in a _test.go file of the repository, the nested benchmark
// module included.
func definedTests(t *testing.T) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		b, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(b), -1) {
			names = append(names, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDocsCiteTestsThatExist fails when a doc names a test, benchmark or fuzz
// target that no _test.go declares. A trailing * cites every name with that
// prefix, and at least one must exist.
func TestDocsCiteTestsThatExist(t *testing.T) {
	defined := definedTests(t)
	cite := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*?)`)
	for name, text := range readDocs(t) {
		for _, m := range cite.FindAllStringSubmatch(text, -1) {
			cited, prefix := m[1], m[2] == "*"
			if !slices.ContainsFunc(defined, func(d string) bool {
				return d == cited || prefix && strings.HasPrefix(d, cited)
			}) {
				t.Errorf("%s cites %s%s, which no _test.go declares", name, cited, m[2])
			}
		}
	}
}

// TestDocsCiteMakeTargetsThatExist fails when a doc tells the reader to run
// a make target the Makefile does not have. A citation is `make <target>` in
// code: inline after a backquote, or at the start of a line of a code block.
func TestDocsCiteMakeTargetsThatExist(t *testing.T) {
	b, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(b), -1) {
		targets = append(targets, m[1])
	}
	cite := regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z0-9-]*)")
	for name, text := range readDocs(t) {
		for _, m := range cite.FindAllStringSubmatch(text, -1) {
			if !slices.Contains(targets, m[1]) {
				t.Errorf("%s cites make %s, which the Makefile does not define", name, m[1])
			}
		}
	}
}

// TestDesignInventoryNamesEveryPackage fails when DESIGN.md §1 leaves out an
// internal/ package, names one twice, or names a directory that holds no
// non-test Go. Only the Package column counts.
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	named := inventoryPackages(t)
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, e := range entries {
		dir := "internal/" + e.Name()
		if e.IsDir() && hasNonTestGo(t, dir) {
			pkgs = append(pkgs, dir)
		}
	}
	for _, dir := range pkgs {
		if n := named[dir]; n != 1 {
			t.Errorf("DESIGN.md §1 names %s in %d rows, want exactly 1", dir, n)
		}
	}
	for dir := range named {
		if !slices.Contains(pkgs, dir) {
			t.Errorf("DESIGN.md §1 names %s, which is no internal/ package", dir)
		}
	}
}

// inventoryPackages counts, per internal/ directory, the rows of DESIGN.md
// §1 whose Package column names it.
func inventoryPackages(t *testing.T) map[string]int {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## 1. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 1")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile(`(?m)^\| *\d+ *\|[^|]*\|([^|]*)\|`)
	dir := regexp.MustCompile("`(internal/[^`/]+)`")
	named := make(map[string]int)
	for _, r := range row.FindAllStringSubmatch(section, -1) {
		for _, m := range dir.FindAllStringSubmatch(r[1], -1) {
			named[m[1]]++
		}
	}
	if len(named) == 0 {
		t.Fatal("DESIGN.md §1 names no package")
	}
	return named
}

// hasNonTestGo reports whether dir holds a Go file that is not a test.
func hasNonTestGo(t *testing.T, dir string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	return slices.ContainsFunc(files, func(f string) bool { return !strings.HasSuffix(f, "_test.go") })
}

// TestDocsCiteCodeThatExists fails when a doc cites an internal/ directory
// that does not exist, or a backquoted pkg.Name, pkg an internal/ package,
// that declares no top-level Name. Test, Benchmark, Fuzz and Example names
// are TestDocsCiteTestsThatExist's to check.
func TestDocsCiteCodeThatExists(t *testing.T) {
	dirs := regexp.MustCompile(`(?:^|[^\w/.-])internal/(\w+)`)
	spans := regexp.MustCompile("`[^`\n]+`")
	names := regexp.MustCompile(`(?:^|[^\w/.])([a-z]\w*)\.([A-Z]\w*)`)
	tests := regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)`)
	decls := map[string][]string{} // per internal/ package, its top-level names
	for name, text := range readDocs(t) {
		for _, m := range dirs.FindAllStringSubmatch(text, -1) {
			if !isDir("internal/" + m[1]) {
				t.Errorf("%s cites internal/%s, which is no directory", name, m[1])
			}
		}
		for _, span := range spans.FindAllString(text, -1) {
			for _, m := range names.FindAllStringSubmatch(span, -1) {
				pkg, ident := m[1], m[2]
				if !isDir("internal/"+pkg) || tests.MatchString(ident) {
					continue
				}
				if _, ok := decls[pkg]; !ok {
					decls[pkg] = topLevelNames(t, "internal/"+pkg)
				}
				if !slices.Contains(decls[pkg], ident) {
					t.Errorf("%s cites %s.%s, which package %s does not declare", name, pkg, ident, pkg)
				}
			}
		}
	}
}

// TestDocsCiteSeriesThatExist fails when a doc cites, in backquotes, a
// metric series the code does not register. A citation is a name with one of
// the runtime's prefixes (rt_, core_, topics_, udp_, lifecycle_, faultrt_),
// labels stripped; it may carry a histogram's _count, _sum or _bucket suffix
// (core_stable_sum is a gauge's own name), and a trailing _* cites every name
// with that prefix, of which one must exist. The
// registered set is what a started two-group rt.Mesh with metrics, tracing
// and a fault hook publishes.
func TestDocsCiteSeriesThatExist(t *testing.T) {
	reg := obs.New()
	mesh, err := rt.NewMesh(rt.Config{
		Config:    core.Config{N: 3, K: 3, R: 8, SelfExclusion: true},
		Groups:    2,
		Metrics:   reg,
		Lifecycle: &lifecycle.Options{},
		Fault:     faultrt.NewHook(faultrt.Multi{}, reg),
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	mesh.Start() // registers the clock's series
	mesh.Stop()
	histogram := regexp.MustCompile(`_(count|sum_us)$`)
	var registered []string
	reg.VisitInts(func(name string, _ int64) {
		name, _, _ = strings.Cut(name, "{")
		registered = append(registered, histogram.ReplaceAllString(name, ""))
	})
	spans := regexp.MustCompile("`[^`\n]+`")
	series := regexp.MustCompile(`\b((?:rt|core|topics|udp|lifecycle|faultrt)_[a-z0-9_]*[a-z0-9])(_\*)?`)
	suffix := regexp.MustCompile(`_(count|sum|bucket)$`)
	for name, text := range readDocs(t) {
		for _, span := range spans.FindAllString(text, -1) {
			for _, m := range series.FindAllStringSubmatch(span, -1) {
				cited, base, prefix := m[1], suffix.ReplaceAllString(m[1], ""), m[2] != ""
				if !slices.ContainsFunc(registered, func(r string) bool {
					return r == cited || r == base || prefix && strings.HasPrefix(r, cited+"_")
				}) {
					t.Errorf("%s cites %s%s, which no code registers", name, m[1], m[2])
				}
			}
		}
	}
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// topLevelNames returns every name declared at the top level of the Go files
// in dir: functions, methods, types, variables and constants.
func topLevelNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names = append(names, d.Name.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	return names
}
