package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes stdlib type-checking across fixture loads.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// loadFixture loads testdata/src/dir under the import path asPath and
// checks that the package really came from that directory: a loader that
// hands back a memoized package for the assumed path would silently check
// other code.
func loadFixture(t *testing.T, dir, asPath string) *Package {
	t.Helper()
	l := fixtureLoader(t)
	fixDir := filepath.Join("testdata", "src", dir)
	p, err := l.LoadDirAs(asPath, fixDir)
	if err != nil {
		t.Fatalf("loading fixture %s as %s: %v", dir, asPath, err)
	}
	if p.Dir != fixDir {
		t.Fatalf("loaded %s from %s, want the fixture in %s", asPath, p.Dir, fixDir)
	}
	return p
}

// wantMarkers extracts "// WANT rule..." comments: rule name → source lines
// expected to carry a finding.
func wantMarkers(p *Package) map[string][]int {
	want := map[string][]int{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
				if len(fields) < 2 || fields[0] != "WANT" {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				for _, rule := range fields[1:] {
					want[rule] = append(want[rule], line)
				}
			}
		}
	}
	return want
}

func findingLines(findings []Finding) map[string][]int {
	got := map[string][]int{}
	for _, f := range findings {
		got[f.Rule] = append(got[f.Rule], f.Pos.Line)
	}
	for _, lines := range got {
		sort.Ints(lines)
	}
	return got
}

func describe(m map[string][]int) string {
	if len(m) == 0 {
		return "(none)"
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s@%v", k, m[k])
	}
	return b.String()
}

// TestAnalyzerFixtures drives every rule against its fixture package twice
// where the rule is path-scoped: once under a path where violations must
// fire, once under an allowlisted path where the very same code is legal.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		name     string
		dir      string
		asPath   string
		analyzer *Analyzer
		// wantFired: compare against the fixture's WANT markers; when
		// false the load is an allowlist check expecting zero findings.
		wantFired bool
	}{
		{"nondeterm-time/internal", "timefix", "reaper/internal/timefix", NondetermTime, true},
		{"nondeterm-time/cmd-allowed", "timefix", "reaper/cmd/timefix", NondetermTime, false},
		{"raw-rand/internal", "randfix", "reaper/internal/randfix", RawRand, true},
		{"raw-rand/rng-allowed", "randfix", "reaper/internal/rng/compat", RawRand, false},
		{"map-order", "mapfix", "reaper/internal/mapfix", MapOrder, true},
		{"no-panic/library", "panicfix", "reaper/internal/panicfix", NoPanic, true},
		{"no-panic/main-allowed", "panicmain", "reaper/cmd/panicmain", NoPanic, false},
		{"naked-goroutine/internal", "gofix", "reaper/internal/gofix", NakedGoroutine, true},
		{"naked-goroutine/pool-allowed", "gofix", "reaper/internal/parallel", NakedGoroutine, false},
		{"ctx-first", "ctxfix", "reaper/internal/ctxfix", CtxFirst, true},
		{"exported-doc/library", "docfix", "reaper/internal/docfix", ExportedDoc, true},
		{"exported-doc/main-allowed", "panicmain", "reaper/cmd/panicmain", ExportedDoc, false},
		{"raw-artifact-write/library", "writefix", "reaper/internal/writefix", RawArtifactWrite, true},
		{"raw-artifact-write/checkpoint-allowed", "writefix", "reaper/internal/checkpoint", RawArtifactWrite, false},
		{"serialize-exhaustive", "serfix", "reaper/internal/serfix", SerializeExhaustive, true},
		{"rng-stream-discipline", "rngfix", "reaper/internal/rngfix", RngStreamDiscipline, true},
		{"dead-export/internal", "deadfix", "reaper/internal/deadfix", DeadExport, true},
		{"dead-export/client-allowed", "deadfix", "reaper/client/deadfix", DeadExport, false},
		{"test-only-field/internal", "fieldfix", "reaper/internal/fieldfix", TestOnlyField, true},
		{"test-only-field/client-allowed", "fieldfix", "reaper/client/fieldfix", TestOnlyField, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadFixture(t, tc.dir, tc.asPath)
			res := Run([]*Package{p}, []*Analyzer{tc.analyzer})
			got := findingLines(res.Findings)
			want := map[string][]int{}
			if tc.wantFired {
				for rule, lines := range wantMarkers(p) {
					if rule == tc.analyzer.Name {
						sort.Ints(lines)
						want[rule] = lines
					}
				}
				if len(want) == 0 {
					t.Fatalf("fixture %s has no WANT %s markers", tc.dir, tc.analyzer.Name)
				}
			}
			if describe(got) != describe(want) {
				t.Errorf("findings mismatch:\n got%s\nwant%s", describe(got), describe(want))
			}
		})
	}
}

// TestSuppression checks the //lint:ignore contract: a justified directive
// silences exactly its rule on exactly its line (trailing or standalone
// above), is counted, and a reason-less directive is itself a finding.
func TestSuppression(t *testing.T) {
	p := loadFixture(t, "suppressfix", "reaper/internal/suppressfix")
	res := Run([]*Package{p}, []*Analyzer{NoPanic})

	got := findingLines(res.Findings)
	if n := len(got["no-panic"]); n != 2 {
		t.Errorf("want 2 surviving no-panic findings (unjustified + wrong-rule), got %d at %v",
			n, got["no-panic"])
	}
	if n := len(got["lint-directive"]); n != 1 {
		t.Errorf("want 1 malformed-directive finding, got %d at %v", n, got["lint-directive"])
	}
	if res.Suppressed["no-panic"] != 2 {
		t.Errorf("want 2 counted no-panic suppressions (trailing + standalone), got %d",
			res.Suppressed["no-panic"])
	}
	if len(res.Suppressions) != 4 {
		t.Errorf("want 4 parsed directives, got %d", len(res.Suppressions))
	}
}

// TestDeadExportSubsetRunIndexesWholeModule pins how dead-export treats a
// run over a subset of packages (reaperlint ./internal/dram): it indexes the
// uses of the whole module, so an export whose only callers sit outside the
// subset is not reported.
func TestDeadExportSubsetRunIndexesWholeModule(t *testing.T) {
	l := fixtureLoader(t)
	p, err := l.LoadDir(filepath.Join(l.Root, "internal", "dram"))
	if err != nil {
		t.Fatal(err)
	}
	// An index of dram's own uses would report these exports.
	own := newUseIndex()
	own.add(p)
	outside := 0
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Name.IsExported() && !own.live(p.Info.Defs[d.Name].(*types.Func)) {
				outside++
			}
		}
	}
	if outside == 0 {
		t.Fatal("every dram export has a caller inside dram; the subset run proves nothing")
	}
	res := Run([]*Package{p}, []*Analyzer{DeadExport})
	for _, f := range res.Findings {
		t.Errorf("subset run reported %s", f)
	}
}

// TestRepoClean is the tier-1 hook: the shipped tree itself must pass the
// whole analyzer suite. Any new violation fails `go test ./...` directly,
// not just `make lint`.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module scan skipped in -short mode (run by make lint)")
	}
	pkgs, err := fixtureLoader(t).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	res := Run(pkgs, Analyzers())
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
}
