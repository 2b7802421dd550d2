package checkpoint

import (
	"bytes"
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
