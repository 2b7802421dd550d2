package testprog

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// minimalDevice returns a small valid device program as JSON.
func minimalDevice() string {
	return `{
  "version": 1,
  "name": "smoke",
  "seed": 7,
  "fleet": {"bits": 1048576, "weak_scale": 40},
  "stages": [
    {"type": "write_pattern", "pattern": "checker"},
    {"type": "set_temp", "ambient_c": 50},
    {"type": "disable_refresh"},
    {"type": "wait", "seconds": 2},
    {"type": "enable_refresh"},
    {"type": "read_compare", "label": "after-2s"},
    {"type": "classify", "target_interval_s": 1.024, "target_temp_c": 45}
  ],
  "output": {"failing_bits": 8}
}`
}

func TestLoadMinimalDevice(t *testing.T) {
	p, err := Load([]byte(minimalDevice()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if p.Kind() != KindDevice {
		t.Fatalf("kind = %q, want device", p.Kind())
	}
	if len(p.Stages) != 7 {
		t.Fatalf("got %d stages, want 7", len(p.Stages))
	}
	if got := p.Stages[0].(*WritePatternStage).Pattern; got != "checker" {
		t.Fatalf("pattern = %q", got)
	}
	// Load normalizes every stage's declared type token.
	for i, s := range p.Stages {
		declared := reflect.ValueOf(s).Elem().FieldByName("Type").String()
		if declared != s.StageType() {
			t.Fatalf("stage %d: type field %q != token %q", i, declared, s.StageType())
		}
	}
}

// loadRejectCases are programs Load must refuse, each with a substring of
// its error. FuzzLoad seeds from them too.
var loadRejectCases = []struct {
	name string
	json string
	want string // substring of the error
}{
	{"unknown top-level field", `{"version":1,"seed":1,"bogus":2,"stages":[{"type":"disable_refresh"}]}`, "bogus"},
	{"unknown stage type", `{"version":1,"seed":1,"stages":[{"type":"warp_drive"}]}`, "unknown stage type"},
	{"unknown stage field", `{"version":1,"seed":1,"stages":[{"type":"wait","seconds":1,"minutes":2}]}`, "minutes"},
	{"missing stage type", `{"version":1,"seed":1,"stages":[{"seconds":1}]}`, "missing \"type\""},
	{"wrong field type in stage", `{"version":1,"seed":1,"stages":[{"type":"wait","seconds":"soon"}]}`, "cannot unmarshal"},
	{"trailing content", minimalDevice() + `{"version":1}`, "trailing content"},
	{"bad version", `{"version":2,"seed":1,"stages":[{"type":"disable_refresh"}]}`, "unsupported program version"},
	{"no stages", `{"version":1,"seed":1,"stages":[]}`, "no stages"},
	{"unknown vendor", `{"version":1,"seed":1,"fleet":{"vendor":"Z"},"stages":[{"type":"disable_refresh"}]}`, "unknown vendor"},
	{"tiny chip", `{"version":1,"seed":1,"fleet":{"bits":4096},"stages":[{"type":"disable_refresh"}]}`, "fleet.bits"},
	{"negative wait", `{"version":1,"seed":1,"stages":[{"type":"wait","seconds":-1}]}`, "seconds"},
	{"bad pattern", `{"version":1,"seed":1,"stages":[{"type":"write_pattern","pattern":"plaid"}]}`, "plaid"},
	{"read before write", `{"version":1,"seed":1,"stages":[{"type":"read_compare"}]}`, "prior write_pattern"},
	{"classify before read", `{"version":1,"seed":1,"stages":[
		{"type":"write_pattern","pattern":"solid1"},
		{"type":"classify","target_interval_s":1,"target_temp_c":45}]}`, "prior read_compare or profile"},
	{"mixed families", `{"version":1,"seed":1,"stages":[
		{"type":"disable_refresh"},
		{"type":"soak","hours":1,"target_interval_s":1,"controller":true}]}`, "cannot mix"},
	{"inject kind", `{"version":1,"seed":1,"stages":[{"type":"inject_fault","kind":"gamma_ray","cells":3}]}`, "unknown kind"},
	{"inject missing mu", `{"version":1,"seed":1,"stages":[{"type":"inject_fault","kind":"vrt_burst","cells":3}]}`, "max_mu_s"},
	{"inject stray mu", `{"version":1,"seed":1,"stages":[{"type":"inject_fault","kind":"dpd_rescramble","cells":3,"max_mu_s":1}]}`, "does not take max_mu_s"},
	{"inject zero cells", `{"version":1,"seed":1,"stages":[{"type":"inject_fault","kind":"dpd_rescramble","cells":0}]}`, "cells 0 out of range"},
	{"inject cells past max", `{"version":1,"seed":1,"stages":[{"type":"inject_fault","kind":"weak_arrival","cells":2000000,"max_mu_s":1}]}`, "cells 2000000 out of range 1..65536"},
	{"unknown soak scenario", `{"version":1,"seed":1,"stages":[{"type":"soak","hours":1,"target_interval_s":1,"controller":true,"scenario":"apocalyptic"}]}`, "unknown scenario"},
	{"empty grid", `{"version":1,"seed":1,"stages":[{"type":"tradeoff_grid","target_interval_s":1,"target_temp_c":45,"delta_intervals_s":[],"delta_temps_c":[0]}]}`, "empty reach grid"},
	{"defaulted iterations past max", `{"version":1,"seed":1,"stages":[{"type":"tradeoff_grid","target_interval_s":1,"target_temp_c":45,"delta_intervals_s":[0],"delta_temps_c":[0],"max_iterations":8}]}`, "iterations 16 exceeds max_iterations 8"},
	{"trace on campaign", `{"version":1,"seed":1,"output":{"include_trace":true},"stages":[{"type":"soak","hours":1,"target_interval_s":1,"controller":true}]}`, "include_trace"},
}

func TestLoadRejects(t *testing.T) {
	for _, tc := range loadRejectCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load([]byte(tc.json))
			if err == nil {
				t.Fatalf("Load accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	p, err := Load([]byte(minimalDevice()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	canon, err := p.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	back, err := Load(canon)
	if err != nil {
		t.Fatalf("Load(Canonical): %v", err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", p, back)
	}
	canon2, err := back.Canonical()
	if err != nil {
		t.Fatalf("second Canonical: %v", err)
	}
	if string(canon) != string(canon2) {
		t.Fatalf("canonical form not stable:\n%s\nvs\n%s", canon, canon2)
	}
}

func TestCanonicalFillsStageTypes(t *testing.T) {
	// A Go-constructed program may leave the Type fields empty; Canonical
	// normalizes them.
	p := &Program{
		Version: Version,
		Seed:    3,
		Stages: []Stage{
			&WritePatternStage{Pattern: "solid1"},
			&ReadCompareStage{},
		},
	}
	canon, err := p.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if !strings.Contains(string(canon), `"type": "write_pattern"`) {
		t.Fatalf("canonical form lacks normalized type token:\n%s", canon)
	}
}

func TestValidateRejectsMismatchedTypeField(t *testing.T) {
	p := &Program{
		Version: Version,
		Seed:    3,
		Stages:  []Stage{&WaitStage{Type: "write_pattern", Seconds: 1}},
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("want type-mismatch error, got %v", err)
	}
}

func TestStageTypesSortedAndClosed(t *testing.T) {
	types := StageTypes()
	if len(types) != len(stageCodecs) {
		t.Fatalf("StageTypes returned %d of %d types", len(types), len(stageCodecs))
	}
	for i := 1; i < len(types); i++ {
		if types[i-1] >= types[i] {
			t.Fatalf("StageTypes not sorted: %v", types)
		}
	}
	// Every registered constructor produces a stage whose token maps back
	// to itself, so the decode dispatch is consistent.
	for _, token := range types {
		if got := stageCodecs[token]().StageType(); got != token {
			t.Fatalf("stage registered as %q reports type %q", token, got)
		}
	}
}

// campaignProgram returns a small valid campaign program as JSON.
func campaignProgram() string {
	return `{
  "version": 1,
  "seed": 11,
  "fleet": {"bits": 1048576, "weak_scale": 40},
  "stages": [
    {"type": "tradeoff_grid", "target_interval_s": 1.024, "target_temp_c": 45,
     "delta_intervals_s": [0, 0.25], "delta_temps_c": [0],
     "iterations": 4, "coverage_goal": 0.9, "max_iterations": 8}
  ],
  "output": {}
}`
}

func TestCampaignProgramLoads(t *testing.T) {
	p, err := Load([]byte(campaignProgram()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if p.Kind() != KindCampaign {
		t.Fatalf("kind = %q, want campaign", p.Kind())
	}
}

// FuzzLoad fuzzes the test-program trust boundary from the programs the
// load tests use: any input must fail Load, or load a program whose
// Canonical form loads back to a deeply equal program. Plain go test runs
// the seed corpus; make fuzz-quick mutates it.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(minimalDevice()))
	f.Add([]byte(campaignProgram()))
	for _, tc := range loadRejectCases {
		f.Add([]byte(tc.json))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(data)
		if err != nil {
			return
		}
		canon, err := p.Canonical()
		if err != nil {
			t.Fatalf("Canonical of a loaded program: %v", err)
		}
		back, err := Load(canon)
		if err != nil {
			t.Fatalf("Load(Canonical): %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", p, back)
		}
	})
}

// TestResultJSONDeterministic pins that marshaling a Result twice gives
// identical bytes (encoding/json struct order is declaration order; no
// maps are involved anywhere in the result schema).
func TestResultJSONDeterministic(t *testing.T) {
	r := &Result{Name: "x", Seed: 1, Version: Version, Kind: KindDevice}
	a, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("marshal not deterministic")
	}
}
