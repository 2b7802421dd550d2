package testprog

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"reaper/internal/core"
	"reaper/internal/experiments"
)

// snakeCase is the repository-wide JSON field convention documented in
// API.md "Naming convention": lower_snake_case, digits allowed.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// TestJSONFieldNamingConvention walks every struct reachable from the
// program/result schema — plus the experiment result types the program
// schema embeds — and asserts every JSON field name is lower_snake_case.
// This is the guard against the testprog and experiment schemas forking
// conventions.
func TestJSONFieldNamingConvention(t *testing.T) {
	roots := []any{
		Program{}, Fleet{}, Output{}, Result{}, ChipRun{}, StageResult{},
		ReadCompareResult{}, ClassifyResult{}, ProfileResult{}, PassRecord{},
		InjectResult{},
		WritePatternStage{}, SetTempStage{}, DisableRefreshStage{},
		EnableRefreshStage{}, WaitStage{}, ReadCompareStage{},
		ClassifyStage{}, InjectFaultStage{}, ProfileStage{},
		TradeoffGridStage{}, SoakStage{}, PopulationSweepStage{},
		core.TradeoffPoint{}, core.ReachConditions{},
		experiments.PopulationResult{}, experiments.ChipResult{},
		experiments.SoakConfig{}, experiments.SoakReport{},
	}
	seen := map[reflect.Type]bool{}
	for _, root := range roots {
		checkNaming(t, reflect.TypeOf(root), seen)
	}
}

func checkNaming(t *testing.T, typ reflect.Type, seen map[reflect.Type]bool) {
	t.Helper()
	for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct || seen[typ] {
		return
	}
	seen[typ] = true
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		tag := f.Tag.Get("json")
		name, _, _ := strings.Cut(tag, ",")
		switch {
		case tag == "":
			t.Errorf("%s.%s: exported field without a json tag", typ, f.Name)
		case name == "-":
			// Explicitly excluded from serialization: fine.
		case !snakeCase.MatchString(name):
			t.Errorf("%s.%s: json name %q is not lower_snake_case", typ, f.Name, name)
		}
		// Recurse into the field's type so nested result payloads are
		// covered without listing them all as roots.
		if name != "-" {
			checkNaming(t, f.Type, seen)
		}
	}
}
