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

// writePackageCopy copies the non-test Go files of the package in src into
// dst, passing each file's text through edit (nil copies verbatim), and
// reports whether edit changed any file.
func writePackageCopy(t *testing.T, src, dst string, edit func(string) string) bool {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	edited := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if edit != nil {
			if out := edit(text); out != text {
				text, edited = out, true
			}
		}
		if err := os.WriteFile(filepath.Join(dst, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return edited
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
	l := fixtureLoader(t)

	cleanDir := t.TempDir()
	writePackageCopy(t, srcDir, cleanDir, nil)
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
	removed := writePackageCopy(t, srcDir, mutDir, func(text string) string {
		var kept []string
		for _, line := range strings.Split(text, "\n") {
			if !strings.Contains(line, mutatedStmt) {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	})
	if !removed {
		t.Fatalf("mutation target %q not found in %s — update the test", mutatedStmt, srcDir)
	}
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

// TestTestOnlyFieldMutation re-adds an option only tests set to a copy of
// internal/sysperf — the closed-row switch its tests once selected — and
// requires test-only-field to report exactly that field. A clean copy must
// stay clean.
func TestTestOnlyFieldMutation(t *testing.T) {
	const configDecl = "type Config struct {\n"
	// sysperf leaves Config.InstructionsPerCore and Config.Seed to its
	// caller (internal/experiments' Fig13EndToEnd). A copy loaded on its
	// own is outside the module index that records those writes, so each
	// copy carries a stand-in for them.
	const callerWrites = "package sysperf\n\nfunc setByCaller(c *Config) { c.InstructionsPerCore, c.Seed = 1, 1 }\n"
	writeCaller := func(dir string) {
		if err := os.WriteFile(filepath.Join(dir, "caller.go"), []byte(callerWrites), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srcDir := filepath.Join("..", "sysperf")
	l := fixtureLoader(t)

	cleanDir := t.TempDir()
	writePackageCopy(t, srcDir, cleanDir, nil)
	writeCaller(cleanDir)
	clean, err := l.LoadDirAs("reaper/internal/sysperfclean", cleanDir)
	if err != nil {
		t.Fatalf("loading clean copy: %v", err)
	}
	if res := Run([]*Package{clean}, []*Analyzer{TestOnlyField}); len(res.Findings) != 0 {
		for _, f := range res.Findings {
			t.Errorf("clean copy not clean: %s", f)
		}
		t.Fatal("control failed; mutation result would be meaningless")
	}

	mutDir := t.TempDir()
	added := writePackageCopy(t, srcDir, mutDir, func(text string) string {
		return strings.Replace(text, configDecl, configDecl+"\tClosedRowPolicy bool\n", 1)
	})
	if !added {
		t.Fatalf("%q not found in %s — update the test", configDecl, srcDir)
	}
	writeCaller(mutDir)
	mutant, err := l.LoadDirAs("reaper/internal/sysperfmut", mutDir)
	if err != nil {
		t.Fatalf("loading mutated copy: %v", err)
	}
	res := Run([]*Package{mutant}, []*Analyzer{TestOnlyField})
	if len(res.Findings) != 1 {
		for _, f := range res.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("want exactly 1 finding for the re-added field, got %d", len(res.Findings))
	}
	if f := res.Findings[0]; f.Rule != "test-only-field" || !strings.Contains(f.Message, "sysperf.Config.ClosedRowPolicy") {
		t.Errorf("finding does not name the re-added field: %s", f)
	}
}
