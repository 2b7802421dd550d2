//go:build unix

package checkpoint

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestWriteFileAtomicFIFO writes to an existing FIFO, the stand-in for a
// device destination such as /dev/null: the bytes must reach the reader,
// and the FIFO must still be a FIFO, not a regular file renamed over it.
func TestWriteFileAtomicFIFO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	got := make(chan []byte, 1)
	go func() {
		data, _ := os.ReadFile(path) // blocks until a writer opens the FIFO
		got <- data
	}()
	if err := WriteFileAtomic(path, []byte("report"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Lstat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("destination mode is %v after the write, want a FIFO", fi.Mode())
	}
	select {
	case data := <-got:
		if string(data) != "report" {
			t.Fatalf("reader got %q, want %q", data, "report")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the FIFO reader got nothing")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory has %d entries (err %v), want only the FIFO", len(entries), err)
	}
}

// TestWriteFileAtomicDirectory refuses a directory destination and leaves
// it, and its parent, as they were.
func TestWriteFileAtomicDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("report"), 0o644); err == nil {
		t.Fatal("writing over a directory succeeded")
	}
	fi, err := os.Lstat(path)
	if err != nil || !fi.IsDir() {
		t.Fatalf("destination is no longer a directory (mode %v, err %v)", fi.Mode(), err)
	}
	if data, err := os.ReadFile(filepath.Join(path, "keep")); err != nil || string(data) != "kept" {
		t.Fatalf("directory content changed: %q, %v", data, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("parent has %d entries (err %v), want only the directory", len(entries), err)
	}
}
