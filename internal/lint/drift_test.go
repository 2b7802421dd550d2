package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// staleMarkedLines returns the source lines of //lint:ignore directives
// whose reason contains the word STALE — the stalefix convention for "the
// analyzer must flag this one" (a stale finding lands on the directive's
// own line, where a second WANT marker comment cannot also go).
func staleMarkedLines(p *Package) []int {
	var lines []int
	scan := func(files []*ast.File) {
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//"+directivePrefix) && strings.Contains(c.Text, "STALE") {
						lines = append(lines, p.Fset.Position(c.Pos()).Line)
					}
				}
			}
		}
	}
	scan(p.Files)
	scan(p.TestFiles)
	sort.Ints(lines)
	return lines
}

// TestStaleSuppressionFixture checks the rot guard end to end: a directive
// that still silences a finding stays quiet, a directive whose violation
// was fixed is flagged on its own line, and a directive stranded in a
// _test.go file (where analyzers never run) is flagged unconditionally.
func TestStaleSuppressionFixture(t *testing.T) {
	p := loadFixture(t, "stalefix", "reaper/internal/stalefix")
	if len(p.TestFiles) != 1 {
		t.Fatalf("want the fixture's _test.go parsed into TestFiles, got %d files", len(p.TestFiles))
	}
	res := Run([]*Package{p}, []*Analyzer{NoPanic, StaleSuppression})
	got := findingLines(res.Findings)

	if n := len(got["no-panic"]); n != 0 {
		t.Errorf("want the live no-panic finding suppressed, got %d at %v", n, got["no-panic"])
	}
	if res.Suppressed["no-panic"] != 1 {
		t.Errorf("want 1 used no-panic suppression, got %d", res.Suppressed["no-panic"])
	}
	want := staleMarkedLines(p)
	if len(want) == 0 {
		t.Fatal("fixture has no STALE-marked directives")
	}
	if describe(map[string][]int{"stale-suppression": got["stale-suppression"]}) !=
		describe(map[string][]int{"stale-suppression": want}) {
		t.Errorf("stale findings mismatch:\n got %v\nwant %v", got["stale-suppression"], want)
	}
}

// TestStaleSuppressionScopedRun checks the deliberate non-finding: a
// directive for a rule that was filtered out of the run is NOT stale — it
// may be load-bearing under the full suite.
func TestStaleSuppressionScopedRun(t *testing.T) {
	p := loadFixture(t, "stalefix", "reaper/internal/stalefix")
	// no-panic is not in this run, so neither shipped-file directive can be
	// judged; only the test-file directive (stale under any rule set) fires.
	res := Run([]*Package{p}, []*Analyzer{StaleSuppression})
	for _, f := range res.Findings {
		if strings.HasSuffix(f.Pos.Filename, "_test.go") {
			continue
		}
		t.Errorf("directive for a filtered-out rule flagged as stale: %s", f)
	}
}

// TestDirectiveEdgeCases covers the multi-rule directive form and a
// directive governing a declaration rather than a statement.
func TestDirectiveEdgeCases(t *testing.T) {
	p := loadFixture(t, "edgefix", "reaper/internal/edgefix")
	res := Run([]*Package{p}, []*Analyzer{NoPanic, NondetermTime, CtxFirst, StaleSuppression})

	if len(res.Findings) != 0 {
		for _, f := range res.Findings {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for rule, want := range map[string]int{"no-panic": 1, "nondeterm-time": 1, "ctx-first": 1} {
		if res.Suppressed[rule] != want {
			t.Errorf("suppressed[%s] = %d, want %d", rule, res.Suppressed[rule], want)
		}
	}
	// The comma list expands to one parsed Suppression per rule, all used.
	if len(res.Suppressions) != 3 {
		t.Errorf("want 3 parsed directives (a,b expands to two), got %d", len(res.Suppressions))
	}
	for _, s := range res.Suppressions {
		if !s.Used() {
			t.Errorf("directive at %s:%d [%s] unexpectedly unused", s.Pos.Filename, s.Pos.Line, s.Rule)
		}
		if strings.Contains(s.Rule, ",") {
			t.Errorf("unsplit multi-rule directive: %q", s.Rule)
		}
	}
}

// TestByNameNewRules pins the registry wiring of the three types-aware
// analyzers: discoverable by name, and present in the default suite.
func TestByNameNewRules(t *testing.T) {
	for name, want := range map[string]*Analyzer{
		"serialize-exhaustive":  SerializeExhaustive,
		"rng-stream-discipline": RngStreamDiscipline,
		"stale-suppression":     StaleSuppression,
	} {
		if got := ByName(name); got != want {
			t.Errorf("ByName(%q) = %v, want the registered analyzer", name, got)
		}
	}
}

// TestSerializeExhaustiveMutation is the self-test demanded by the rule's
// reason to exist: copy internal/dram, delete one field-encode statement
// from the delta encoder (the device codec every soak resume runs), and
// require the analyzer to report exactly that field. A clean copy must stay
// clean — proving the rule detects drift, not merely that the shipped tree
// happens to pass.
func TestSerializeExhaustiveMutation(t *testing.T) {
	const mutatedStmt = "e.F64(c.vrt.nextSwitch)"

	srcDir := filepath.Join("..", "dram")
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	writeCopy := func(dir string, mutate bool) {
		t.Helper()
		removed := false
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(srcDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if mutate && strings.Contains(string(data), mutatedStmt) {
				var kept []string
				for _, line := range strings.Split(string(data), "\n") {
					if strings.Contains(line, mutatedStmt) {
						removed = true
						continue
					}
					kept = append(kept, line)
				}
				data = []byte(strings.Join(kept, "\n"))
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if mutate && !removed {
			t.Fatalf("mutation target %q not found in %s — update the test", mutatedStmt, srcDir)
		}
	}

	l := fixtureLoader(t)

	cleanDir := t.TempDir()
	writeCopy(cleanDir, false)
	clean, err := l.LoadDirAs("reaper/internal/drammutclean", cleanDir)
	if err != nil {
		t.Fatalf("loading clean copy: %v", err)
	}
	if res := Run([]*Package{clean}, []*Analyzer{SerializeExhaustive}); len(res.Findings) != 0 {
		for _, f := range res.Findings {
			t.Errorf("clean copy not clean: %s", f)
		}
		t.Fatal("control failed; mutation result would be meaningless")
	}

	mutDir := t.TempDir()
	writeCopy(mutDir, true)
	mutant, err := l.LoadDirAs("reaper/internal/drammut", mutDir)
	if err != nil {
		t.Fatalf("loading mutated copy: %v", err)
	}
	res := Run([]*Package{mutant}, []*Analyzer{SerializeExhaustive})
	if len(res.Findings) != 1 {
		for _, f := range res.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("want exactly 1 finding for the deleted encode line, got %d", len(res.Findings))
	}
	f := res.Findings[0]
	if f.Rule != "serialize-exhaustive" ||
		!strings.Contains(f.Message, "vrtState.nextSwitch") ||
		!strings.Contains(f.Message, "decoded but never encoded") {
		t.Errorf("finding does not name the mutated field: %s", f)
	}
}
