package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path so that the file is either absent/old
// or complete/new, never half-written: the bytes go to a temporary file in
// the same directory, are flushed to stable storage, and are then renamed
// over the destination (rename within a directory is atomic on POSIX).
//
// Every campaign artifact in this repository — reports, metrics, traces,
// checkpoints — must be written through this function (enforced by the
// reaperlint artifact-write rule), so a crash mid-write can never leave a
// truncated report that a later tool would misread as a short campaign.
//
// A destination that already exists and is not a regular file — a device
// such as /dev/null, a FIFO, or a symlink such as /dev/stdout — is written
// straight through instead: renaming over it would replace it with a
// regular file (or fail where its directory is not writable), and fsync
// fails on character devices. A directory destination is an error.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		return writeThrough(path, fi, data)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: atomic write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: atomic write %s: sync: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: atomic write %s: close: %w", path, err)
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		return fmt.Errorf("checkpoint: atomic write %s: chmod: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: atomic write %s: rename: %w", path, err)
	}
	return nil
}

// writeThrough writes data to an existing non-regular destination in place:
// no temporary file, no fsync and no rename.
func writeThrough(path string, fi os.FileInfo, data []byte) error {
	if fi.IsDir() {
		return fmt.Errorf("checkpoint: atomic write %s: is a directory", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0)
	if err != nil {
		return fmt.Errorf("checkpoint: atomic write %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: atomic write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: atomic write %s: close: %w", path, err)
	}
	return nil
}
