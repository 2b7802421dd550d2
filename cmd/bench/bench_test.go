package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the report
// must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 1, seconds: 0.2, trace: trace, workers: benchWorkers, tiny: true, workdir: t.TempDir()}
}

// TestReportMatchesBenchmarkJSON runs one tiny unit per workload, untraced
// and traced, and checks the report names exactly BENCHMARK.json's metrics
// with their units and counts no failure.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(context.Background(), tinyConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d units failed: %v", w, trace, rep.Result.Failed, rep.Result.Attempted, rep.Failures)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Result.Metrics) != len(want) {
				t.Errorf("%s trace=%t: report has %d metrics, BENCHMARK.json %d", w, trace, len(rep.Result.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Result.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestDigestsIndependentOfWorkers checks every workload's unit output is
// byte-identical at 1 and 2 workers.
func TestDigestsIndependentOfWorkers(t *testing.T) {
	ctx := context.Background()
	for _, w := range []string{"fig9_grid", "population", "soak"} {
		var digests []string
		for _, workers := range []int{1, 2} {
			rc := tinyConfig(t, w, false)
			rc.workers = workers
			out, err := batches[w].run(ctx, rc, 1)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", w, workers, err)
			}
			digests = append(digests, digest(out.canon))
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at 1 worker, %s at 2", w, digests[0], digests[1])
		}
	}
	for _, p := range servicePool(tinyConfig(t, "service", false)) {
		one, err := runProgram(ctx, p.body, 1)
		if err != nil {
			t.Fatal(err)
		}
		two, err := runProgram(ctx, p.body, 2)
		if err != nil {
			t.Fatal(err)
		}
		if digest(one) != digest(two) {
			t.Errorf("service %s: result differs at 1 and 2 workers", p.key)
		}
	}
}
