package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reaper/internal/rng"
)

func TestCodecRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Section("hdr")
	e.U64(0)
	e.U64(math.MaxUint64)
	e.I64(-42)
	e.Int(7)
	e.F64(math.Inf(1))
	e.F64(math.Inf(-1))
	e.F64(math.Copysign(0, -1))
	e.F64(1.5e-300)
	e.Bool(true)
	e.Bool(false)
	e.Byte(0xAB)
	e.Bytes([]byte{1, 2, 3})
	e.Str("hello")
	e.Len(3)
	for i := uint8(0); i < 3; i++ {
		e.Byte(i)
	}

	d := NewDecoder(e.Data())
	d.Section("hdr")
	if got := d.U64(); got != 0 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != 7 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); !math.IsInf(got, 1) {
		t.Errorf("F64 = %v, want +Inf", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %v, want -Inf", got)
	}
	if got := d.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("F64 = %v, want -0", got)
	}
	if got := d.F64(); got != 1.5e-300 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool = false, want true")
	}
	if got := d.Bool(); got {
		t.Error("Bool = true, want false")
	}
	if got := d.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Len(100); got != 3 {
		t.Errorf("Len = %d", got)
	}
	for i := uint8(0); i < 3; i++ {
		if got := d.Byte(); got != i {
			t.Errorf("element %d = %d", i, got)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	e := NewEncoder()
	e.U64(1)
	d := NewDecoder(e.Data())
	d.U64()
	d.U64() // truncated: latches the error
	first := d.Err()
	if first == nil {
		t.Fatal("want truncation error")
	}
	// Every subsequent read is a zero value and the error is unchanged.
	if got := d.Str(); got != "" {
		t.Errorf("Str after error = %q", got)
	}
	if got := d.F64(); got != 0 {
		t.Errorf("F64 after error = %v", got)
	}
	if d.Err() != first {
		t.Error("error not sticky")
	}
}

func TestDecoderSectionMismatch(t *testing.T) {
	e := NewEncoder()
	e.Section("dram")
	d := NewDecoder(e.Data())
	d.Section("firmware")
	if d.Err() == nil {
		t.Fatal("want section mismatch error")
	}
}

func TestDecoderLenBound(t *testing.T) {
	e := NewEncoder()
	e.Len(1 << 40)
	d := NewDecoder(e.Data())
	if got := d.Len(1000); got != 0 || d.Err() == nil {
		t.Fatalf("Len past bound: got %d, err %v", got, d.Err())
	}

	// A count within the ceiling but past the bytes left is corrupt too:
	// every element takes at least one byte.
	for _, tc := range []struct {
		name string
		put  func(*Encoder, int)
		get  func(*Decoder, int) int
	}{
		{"Len", (*Encoder).Len, (*Decoder).Len},
		{"VarLen", (*Encoder).VarLen, (*Decoder).VarLen},
	} {
		for _, left := range []int{3, 4} {
			e := NewEncoder()
			tc.put(e, 4)
			for i := 0; i < left; i++ {
				e.Byte(0)
			}
			d := NewDecoder(e.Data())
			got := tc.get(d, 1<<28)
			if fits := left >= 4; (d.Err() == nil) != fits || (fits && got != 4) || (!fits && got != 0) {
				t.Errorf("%s(4) with %d bytes left: got %d, err %v", tc.name, left, got, d.Err())
			}
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Errorf("content = %q", data)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1", len(entries))
	}
}

func snap(seq int, payload string) map[string][]byte {
	return map[string][]byte{
		"state.ckpt": []byte(payload),
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := Identity([]byte("config-A"))
	if err := st.Save(1, id, snap(1, "snapshot-one")); err != nil {
		t.Fatal(err)
	}
	m, files, err := st.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 1 || string(files["state.ckpt"]) != "snapshot-one" {
		t.Errorf("loaded seq %d files %q", m.Seq, files)
	}
}

func TestStoreLoadEmpty(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(""); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

// TestStoreRejectsOtherFormatVersion rewrites both manifest generations to
// the previous format version. Load must refuse them with an error naming
// the version, and that error must not be ErrNoCheckpoint: a resume would
// otherwise start the campaign over without saying so.
func TestStoreRejectsOtherFormatVersion(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity([]byte("cfg"))
	for seq := 1; seq <= 2; seq++ {
		if err := st.Save(seq, id, snap(seq, "state")); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{manifestName, prevName} {
		m, err := st.readManifest(name)
		if err != nil {
			t.Fatal(err)
		}
		m.Version = FormatVersion - 1
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = st.Load(id)
	if err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("err = %v, want a format version refusal", err)
	}
	if errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, must not be ErrNoCheckpoint", err)
	}
}

func TestStoreIdentityMismatch(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(1, Identity([]byte("config-A")), snap(1, "x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(Identity([]byte("config-B"))); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("err = %v, want ErrIdentityMismatch", err)
	}
}

// TestStoreCorruptionFallback drives seed-driven truncations and bit flips
// into the newest snapshot's state file and checks every one of them is
// detected by checksum, with Load falling back to the previous generation.
func TestStoreCorruptionFallback(t *testing.T) {
	src := rng.New(0xC0442)
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		st, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		id := Identity([]byte("cfg"))
		// Generation 1 (will become manifest.prev.json), then generation 2.
		if err := st.Save(1, id, map[string][]byte{"state-1.ckpt": []byte("generation-one-state")}); err != nil {
			t.Fatal(err)
		}
		if err := st.Save(2, id, map[string][]byte{"state-2.ckpt": []byte("generation-two-state")}); err != nil {
			t.Fatal(err)
		}
		victim := filepath.Join(dir, "state-2.ckpt")
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 0 {
			// Truncate at a seed-driven offset (possibly to zero bytes).
			cut := src.Intn(len(data))
			data = data[:cut]
		} else {
			// Flip a seed-driven bit.
			pos := src.Intn(len(data))
			data[pos] ^= 1 << uint(src.Intn(8))
		}
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, files, err := st.Load(id)
		if err != nil {
			t.Fatalf("trial %d: fallback load failed: %v", trial, err)
		}
		if m.Seq != 1 || string(files["state-1.ckpt"]) != "generation-one-state" {
			t.Fatalf("trial %d: loaded seq %d, want fallback to 1", trial, m.Seq)
		}
	}
}

func TestStoreBothGenerationsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity([]byte("cfg"))
	if err := st.Save(1, id, map[string][]byte{"state-1.ckpt": []byte("one")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(2, id, map[string][]byte{"state-2.ckpt": []byte("two")}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"state-1.ckpt", "state-2.ckpt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Load(id); err == nil {
		t.Fatal("want error when both generations are corrupt")
	}
}

func TestStorePrunesStaleStateFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity([]byte("cfg"))
	for seq := 1; seq <= 3; seq++ {
		name := map[string][]byte{
			// Unique name per generation so pruning has something to collect.
			"state-" + string(rune('0'+seq)) + ".ckpt": []byte("gen"),
		}
		if err := st.Save(seq, id, name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "state-1.ckpt")); !os.IsNotExist(err) {
		t.Error("state-1.ckpt not pruned after falling out of both generations")
	}
	for _, keep := range []string{"state-2.ckpt", "state-3.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Errorf("%s missing: %v", keep, err)
		}
	}
}

// TestStoreSaveKeepsListedFile checks that a save repeating a file the
// current manifest lists with the same content leaves that file in place,
// while a changed file is written anew.
func TestStoreSaveKeepsListedFile(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity([]byte("cfg"))
	if err := st.Save(1, id, map[string][]byte{"a.ckpt": []byte("chip a"), "b.ckpt": []byte("chip b")}); err != nil {
		t.Fatal(err)
	}
	stat := func(name string) os.FileInfo {
		t.Helper()
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	a1, b1 := stat("a.ckpt"), stat("b.ckpt")
	if err := st.Save(2, id, map[string][]byte{"a.ckpt": []byte("chip a"), "b.ckpt": []byte("chip b, later")}); err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(a1, stat("a.ckpt")) {
		t.Error("unchanged a.ckpt was rewritten")
	}
	if os.SameFile(b1, stat("b.ckpt")) {
		t.Error("changed b.ckpt was not rewritten")
	}
	if _, files, err := st.Load(id); err != nil || string(files["b.ckpt"]) != "chip b, later" {
		t.Fatalf("load after partial rewrite: %q, %v", files["b.ckpt"], err)
	}
}

// TestStoreSaveNilKeepsListedFile: a nil value keeps the file the current
// manifest lists, entry and bytes as they stand, both after a Save and
// after a Load by a fresh Store.
func TestStoreSaveNilKeepsListedFile(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity([]byte("cfg"))
	if err := st.Save(1, id, map[string][]byte{"a.ckpt": []byte("chip a"), "b.ckpt": []byte("chip b")}); err != nil {
		t.Fatal(err)
	}
	man1, _, err := st.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, "a.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(2, id, map[string][]byte{"a.ckpt": nil, "b.ckpt": []byte("chip b, later")}); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	man2, files, err := fresh.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Seq != 2 || man2.Files[0] != man1.Files[0] || string(files["a.ckpt"]) != "chip a" ||
		string(files["b.ckpt"]) != "chip b, later" {
		t.Fatalf("after a nil save: manifest %+v, files %q", man2, files)
	}
	after, err := os.Stat(filepath.Join(dir, "a.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(info, after) || !info.ModTime().Equal(after.ModTime()) {
		t.Error("a.ckpt was rewritten for a nil value")
	}
	if err := fresh.Save(3, id, map[string][]byte{"a.ckpt": nil, "b.ckpt": nil}); err != nil {
		t.Fatalf("nil values for the loaded manifest's files: %v", err)
	}
	if man, _, err := fresh.Load(id); err != nil || man.Seq != 3 || len(man.Files) != 2 {
		t.Fatalf("after an all-nil save: %+v, %v", man, err)
	}
}

// TestStoreSaveNilRefusesUnlistedName: a nil value for a name the current
// manifest does not list has no content to keep, so Save refuses it and
// leaves the directory's snapshot as it was.
func TestStoreSaveNilRefusesUnlistedName(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity([]byte("cfg"))
	if err := st.Save(1, id, map[string][]byte{"a.ckpt": nil}); err == nil {
		t.Error("nil value accepted by a store with no manifest")
	}
	if err := st.Save(1, id, map[string][]byte{"a.ckpt": []byte("chip a")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(2, id, map[string][]byte{"a.ckpt": nil, "b.ckpt": nil}); err == nil {
		t.Error("nil value accepted for a file no manifest lists")
	}
	man, files, err := st.Load(id)
	if err != nil || man.Seq != 1 || len(files) != 1 || string(files["a.ckpt"]) != "chip a" {
		t.Fatalf("snapshot after a refused save: %+v %q, %v", man, files, err)
	}
}

// TestStoreSaveRewritesFileOfRejectedGeneration covers a resume that fell
// back past a corrupt newest generation: a later save of the same name and
// content must write the file again, not trust the corrupt copy the
// rejected manifest lists.
func TestStoreSaveRewritesFileOfRejectedGeneration(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity([]byte("cfg"))
	if err := st.Save(1, id, map[string][]byte{"a-1.ckpt": []byte("one")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(2, id, map[string][]byte{"a-2.ckpt": []byte("two")}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a-2.ckpt"), []byte("tw0"), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, _, err := resumed.Load(id); err != nil || m.Seq != 1 {
		t.Fatalf("fallback load: %+v, %v", m, err)
	}
	if err := resumed.Save(3, id, map[string][]byte{"a-2.ckpt": []byte("two")}); err != nil {
		t.Fatal(err)
	}
	if _, files, err := resumed.Load(id); err != nil || string(files["a-2.ckpt"]) != "two" {
		t.Fatalf("load after re-save: %q, %v", files["a-2.ckpt"], err)
	}
}

func TestStoreRejectsBadNames(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(1, "id", map[string][]byte{"state.bin": nil}); err == nil {
		t.Error("want error for missing .ckpt suffix")
	}
	if err := st.Save(1, "id", map[string][]byte{"sub/state.ckpt": nil}); err == nil {
		t.Error("want error for non-base name")
	}
}

// entryManifest returns a manifest whose one entry names name with data's
// true length and digest.
func entryManifest(tb testing.TB, seq int, id, name string, data []byte) []byte {
	tb.Helper()
	sum := sha256.Sum256(data)
	enc, err := json.Marshal(Manifest{Version: FormatVersion, Identity: id, Seq: seq,
		Files: []FileEntry{{Name: name, SHA256: hex.EncodeToString(sum[:]), Bytes: int64(len(data))}}})
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// outsideEntries are manifest entries Load must refuse: a path into the
// parent directory, a path into a subdirectory, a name without the .ckpt
// suffix, and a .ckpt symlink to a regular file outside the directory.
// plantOutside puts a file holding data wherever each resolves for a store
// directory dir inside root.
var outsideEntries = []struct{ label, name string }{
	{"parent-dir", "../x.ckpt"}, {"subdir", "sub/x.ckpt"}, {"suffix", "x.txt"}, {"symlink", "link.ckpt"},
}

func plantOutside(tb testing.TB, root, dir string, data []byte) {
	tb.Helper()
	target := filepath.Join(root, "outside.bin")
	for _, path := range []string{filepath.Join(root, "x.ckpt"), filepath.Join(dir, "sub", "x.ckpt"), filepath.Join(dir, "x.txt"), target} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	if err := os.Symlink(target, filepath.Join(dir, "link.ckpt")); err != nil {
		tb.Fatal(err)
	}
}

// TestStoreLoadRefusesOutsideFiles lists each outside entry, with its
// target's true length and digest, in the newest manifest. Load must refuse
// that generation and fall back to the previous one.
func TestStoreLoadRefusesOutsideFiles(t *testing.T) {
	outside := []byte("bytes that live outside the checkpoint directory")
	for _, entry := range outsideEntries {
		t.Run(entry.label, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "ckpt")
			st, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			id := Identity([]byte("cfg"))
			if err := st.Save(1, id, snap(1, "generation-one")); err != nil {
				t.Fatal(err)
			}
			plantOutside(t, root, dir, outside)
			if err := os.Rename(filepath.Join(dir, manifestName), filepath.Join(dir, prevName)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), entryManifest(t, 2, id, entry.name, outside), 0o644); err != nil {
				t.Fatal(err)
			}
			m, files, err := st.Load(id)
			if err != nil {
				t.Fatalf("fallback load failed: %v", err)
			}
			if m.Seq != 1 || len(files) != 1 || string(files["state.ckpt"]) != "generation-one" {
				t.Fatalf("loaded seq %d with files %q, want the fallback to seq 1", m.Seq, files)
			}
		})
	}
}

// FuzzStoreLoad fuzzes the checkpoint directory's trust boundary: an
// arbitrary manifest.json beside an arbitrary a.ckpt, with the outside
// entries' targets holding the same bytes as a.ckpt. Load must return an
// error or only regular files in the directory with base .ckpt names, and
// must never panic. Plain go test runs the seed corpus; make fuzz-quick
// mutates it.
func FuzzStoreLoad(f *testing.F) {
	state := []byte("generation-one")
	dir := f.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Save(1, Identity([]byte("cfg")), map[string][]byte{"a.ckpt": state}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, state)
	f.Add(valid[:len(valid)/2], state)
	for _, entry := range outsideEntries {
		f.Add(entryManifest(f, 1, "", entry.name, state), state)
	}
	f.Fuzz(func(t *testing.T, manifest, ckpt []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "ckpt")
		st, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		plantOutside(t, root, dir, ckpt)
		for name, data := range map[string][]byte{manifestName: manifest, "a.ckpt": ckpt} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, files, err := st.Load("")
		if err != nil {
			return
		}
		for name := range files {
			if checkStateName(name) != nil {
				t.Fatalf("Load returned state file %q", name)
			}
			if info, err := os.Lstat(filepath.Join(dir, name)); err != nil || !info.Mode().IsRegular() {
				t.Fatalf("Load returned %q, which is not a regular file in the directory", name)
			}
		}
	})
}
