package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reaper/internal/exitcode"
	"reaper/internal/experiments"
)

func TestUnknownFigListsValidIDs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "fig1"}, &stdout, &stderr); code != exitcode.ConfigError {
		t.Fatalf("exit %d, want %d", code, exitcode.ConfigError)
	}
	for _, e := range experiments.Entries() {
		if !strings.Contains(stderr.String(), e.ID) {
			t.Errorf("error message does not list %q: %s", e.ID, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("printed output for an unknown entry: %s", stdout.String())
	}
}

func TestZeroWorkersRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "table1", "-workers", "0"}, &stdout, &stderr); code != exitcode.ConfigError {
		t.Fatalf("exit %d, want %d", code, exitcode.ConfigError)
	}
}

func TestTable1PrintsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "reproduce", "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "table1"}, &stdout, &stderr); code != exitcode.OK {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from the golden:\n%s", stdout.String())
	}
}
