package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"log"
	"strconv"
	"sync"

	"reaper/internal/checkpoint"
	"reaper/internal/testprog"
)

// goldenJSON pins the sha256 of every unit's canonical output for unit
// seeds 1..goldenUnits[workload], keyed by workload and unit seed (service:
// "device/<seed>" and "profile/<seed>" for each pool program). A run whose
// units overlap those seeds checks them; every run also checks that repeated
// units reproduce their first output.
//
//go:embed testdata/golden.json
var goldenJSON []byte

var goldenUnits = map[string]int{"fig9_grid": 32, "population": 32, "soak": 20, "service": 48}

var golden = sync.OnceValue(func() map[string]map[string]string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		log.Fatalf("embedded testdata/golden.json: %v", err)
	}
	return g
})

// writeGoldenFile recomputes the pinned digests of the named workloads at
// the benchmark's worker count and writes the merged table to path.
func writeGoldenFile(ctx context.Context, path string, names []string, dir string) error {
	out := map[string]map[string]string{}
	for w, m := range golden() {
		out[w] = m
	}
	for _, name := range names {
		rc := runConfig{workload: name, workers: benchWorkers, workdir: dir}
		m := map[string]string{}
		for s := uint64(1); s <= uint64(goldenUnits[name]); s++ {
			if name == "service" {
				for kind, body := range map[string][]byte{"device": deviceProgram(s, false), "profile": profileProgram(s, false)} {
					b, err := runProgram(ctx, body, 1)
					if err != nil {
						return err
					}
					m[fmt.Sprintf("%s/%d", kind, s)] = digest(b)
				}
				continue
			}
			u, err := batches[name].run(ctx, rc, s)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			m[strconv.FormatUint(s, 10)] = digest(u.canon)
		}
		out[name] = m
		log.Printf("%s: pinned %d digests", name, len(m))
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, append(body, '\n'), 0o644)
}

// runProgram runs a program in-process and returns the result document
// exactly as reaperd serves it.
func runProgram(ctx context.Context, body []byte, workers int) ([]byte, error) {
	p, err := testprog.Load(body)
	if err != nil {
		return nil, err
	}
	res, err := testprog.Run(ctx, p, testprog.RunOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	enc, err := json.Marshal(res)
	return append(enc, '\n'), err
}
