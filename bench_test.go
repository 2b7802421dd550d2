// Benchmark harness: one sub-benchmark per entry of the experiment registry
// (internal/experiments.Entries), so
//
//	go test -run '^$' -bench Experiments -benchtime 1x
//
// regenerates the entire evaluation. Each entry runs at seed 1, and its
// output must equal testdata/reproduce/<ID>.txt byte for byte; a golden is
// the stdout of `go run ./cmd/reproduce -fig ID -seed 1`. EXPERIMENTS.md
// records paper-vs-measured for every entry.
package reaper

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reaper/internal/experiments"
	"reaper/internal/parallel"
)

// BenchmarkExperiments times every registry entry and fails on a missing
// golden, on a golden without an entry, and on any byte of difference.
func BenchmarkExperiments(b *testing.B) {
	dir := filepath.Join("testdata", "reproduce")
	entries := experiments.Entries()
	ids := map[string]bool{}
	for _, e := range entries {
		ids[e.ID] = true
	}
	goldens, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range goldens {
		if id := strings.TrimSuffix(filepath.Base(g), ".txt"); !ids[id] {
			b.Errorf("golden %s has no registry entry %q", g, id)
		}
	}
	for _, e := range entries {
		b.Run(e.ID, func(b *testing.B) {
			path := filepath.Join(dir, e.ID+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				b.Fatalf("missing golden: %v", err)
			}
			var got bytes.Buffer
			for i := 0; i < b.N; i++ {
				got.Reset()
				if err := e.Run(context.Background(), &got, 1, parallel.DefaultWorkers()); err != nil {
					b.Fatal(err)
				}
			}
			if !bytes.Equal(got.Bytes(), want) {
				b.Fatalf("output differs from %s; re-pin only on purpose with "+
					"`go run ./cmd/reproduce -fig %s -seed 1 > %s`. Got:\n%s", path, e.ID, path, got.Bytes())
			}
		})
	}
}
