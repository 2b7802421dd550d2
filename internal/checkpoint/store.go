package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FormatVersion is the manifest schema version. It is bumped whenever the
// layout of any state blob changes incompatibly; a Store refuses to load a
// manifest from a different version rather than misinterpret old bytes.
// Version 2 dropped the per-bank stream states and counters from the device
// blob.
const FormatVersion = 2

// ErrNoCheckpoint is returned by Load when the directory holds no manifest
// at all (a fresh campaign, or -resume pointed at the wrong directory).
var ErrNoCheckpoint = errors.New("checkpoint: no manifest found")

// ErrIdentityMismatch is returned when a valid manifest exists but was
// written by a campaign with a different configuration. Unlike corruption,
// identity mismatch does not fall back to the previous manifest: the whole
// directory belongs to a different run and resuming from it would silently
// produce a report for the wrong campaign.
var ErrIdentityMismatch = errors.New("checkpoint: manifest belongs to a different campaign configuration")

// FileEntry records one state file referenced by a manifest.
type FileEntry struct {
	// Name is the file's base name within the checkpoint directory.
	Name string `json:"name"`
	// SHA256 is the hex digest of the file's contents.
	SHA256 string `json:"sha256"`
	// Bytes is the expected file length.
	Bytes int64 `json:"bytes"`
}

// Manifest is the checkpoint directory's table of contents: which state
// files constitute one consistent snapshot, with checksums. It is the only
// JSON artifact in the format (state blobs are binary so that ±Inf and
// bit-exact floats survive).
type Manifest struct {
	// Version is the manifest schema version (FormatVersion at write time).
	Version int `json:"version"`
	// Identity fingerprints the campaign configuration (Identity of the
	// canonical config encoding); resume refuses a mismatched directory.
	Identity string `json:"identity"`
	// Seq is the checkpoint sequence number, monotonically increasing.
	Seq int `json:"seq"`
	// Files lists the snapshot's state files, sorted by name.
	Files []FileEntry `json:"files"`
}

const (
	manifestName = "manifest.json"
	prevName     = "manifest.prev.json"
	// stateSuffix marks files the store owns and may prune.
	stateSuffix = ".ckpt"
)

// Identity returns the hex SHA-256 fingerprint of a canonical configuration
// encoding, used to bind a checkpoint directory to one campaign.
func Identity(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Store manages a checkpoint directory: two generations of manifests
// (manifest.json and manifest.prev.json) plus the state files they
// reference. Save keeps the previous generation intact until the new one is
// fully durable, so a crash at any point leaves at least one loadable
// snapshot.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) the checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the directory the store manages.
func (s *Store) Dir() string { return s.dir }

// Save durably writes one snapshot: every state file (names must carry the
// stateSuffix ".ckpt"), then the manifest, rotating the prior manifest to
// manifest.prev.json first and pruning state files no longer referenced by
// either generation. Order matters: state files land before the manifest
// that references them, and the old manifest (whose files are untouched)
// survives until the new one is fully in place.
func (s *Store) Save(seq int, identity string, files map[string][]byte) error {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	m := &Manifest{Version: FormatVersion, Identity: identity, Seq: seq}
	for _, name := range names {
		if err := checkStateName(name); err != nil {
			return err
		}
		data := files[name]
		if err := WriteFileAtomic(filepath.Join(s.dir, name), data, 0o644); err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		m.Files = append(m.Files, FileEntry{
			Name:   name,
			SHA256: hex.EncodeToString(sum[:]),
			Bytes:  int64(len(data)),
		})
	}
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: manifest: %w", err)
	}
	enc = append(enc, '\n')
	cur := filepath.Join(s.dir, manifestName)
	if _, statErr := os.Stat(cur); statErr == nil {
		if err := os.Rename(cur, filepath.Join(s.dir, prevName)); err != nil {
			return fmt.Errorf("checkpoint: rotate manifest: %w", err)
		}
	}
	if err := WriteFileAtomic(cur, enc, 0o644); err != nil {
		return err
	}
	s.prune()
	return nil
}

// checkStateName enforces the rule for state-file names: a base name in the
// store's directory that ends in stateSuffix.
func checkStateName(name string) error {
	if !strings.HasSuffix(name, stateSuffix) {
		return fmt.Errorf("checkpoint: state file %q must end in %s", name, stateSuffix)
	}
	if name != filepath.Base(name) {
		return fmt.Errorf("checkpoint: state file %q must be a base name", name)
	}
	return nil
}

// prune removes state files referenced by neither manifest generation.
// Failures are ignored: pruning is garbage collection, not correctness.
func (s *Store) prune() {
	live := map[string]bool{}
	for _, name := range []string{manifestName, prevName} {
		m, err := s.readManifest(name)
		if err != nil {
			continue
		}
		for _, f := range m.Files {
			live[f.Name] = true
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, stateSuffix) && !live[name] {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// readManifest parses one manifest generation without verifying its files.
func (s *Store) readManifest(name string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", name, err)
	}
	return &m, nil
}

// Load returns the newest snapshot whose manifest parses and whose state
// files all verify against their recorded SHA-256 digests and lengths. A
// corrupted or truncated newest generation falls back to the previous one;
// if both generations fail, the combined errors are returned. identity, if
// non-empty, must match the manifest's recorded campaign identity —
// a mismatch is ErrIdentityMismatch and never falls back.
func (s *Store) Load(identity string) (*Manifest, map[string][]byte, error) {
	var errs []error
	sawManifest := false
	for _, name := range []string{manifestName, prevName} {
		m, err := s.readManifest(name)
		if err != nil {
			if !os.IsNotExist(err) {
				errs = append(errs, err)
			}
			continue
		}
		sawManifest = true
		if m.Version != FormatVersion {
			errs = append(errs, fmt.Errorf("checkpoint: %s: format version %d, want %d", name, m.Version, FormatVersion))
			continue
		}
		if identity != "" && m.Identity != identity {
			return nil, nil, fmt.Errorf("%w (manifest %s, campaign %s)",
				ErrIdentityMismatch, short(m.Identity), short(identity))
		}
		files, err := s.verify(m)
		if err != nil {
			errs = append(errs, fmt.Errorf("checkpoint: %s: %w", name, err))
			continue
		}
		return m, files, nil
	}
	if !sawManifest && len(errs) == 0 {
		return nil, nil, ErrNoCheckpoint
	}
	return nil, nil, fmt.Errorf("checkpoint: no loadable snapshot: %w", errors.Join(errs...))
}

// verify reads and checksums every state file of a manifest. An entry must
// pass Save's name rule and name a regular file (not a symlink) whose size
// matches before it is read, so a manifest can neither reach outside the
// directory nor make Load read without bound.
func (s *Store) verify(m *Manifest) (map[string][]byte, error) {
	files := make(map[string][]byte, len(m.Files))
	for _, f := range m.Files {
		if err := checkStateName(f.Name); err != nil {
			return nil, err
		}
		path := filepath.Join(s.dir, f.Name)
		info, err := os.Lstat(path)
		if err != nil {
			return nil, err
		}
		if !info.Mode().IsRegular() {
			return nil, fmt.Errorf("%s: not a regular file", f.Name)
		}
		if info.Size() != f.Bytes {
			return nil, fmt.Errorf("%s: %d bytes, manifest says %d (truncated?)", f.Name, info.Size(), f.Bytes)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != f.SHA256 {
			return nil, fmt.Errorf("%s: checksum mismatch (corrupted)", f.Name)
		}
		files[f.Name] = data
	}
	return files, nil
}

func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
