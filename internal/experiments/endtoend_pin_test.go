package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// bitsDigest hashes the exact float64 bits of vals, so a last-bit move in
// any one of them changes it. The fig11 and fig13 goldens print one-decimal
// percentages and cannot see such a move.
func bitsDigest(vals []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestFig11RowsBitPinned pins every field of every Fig 11/12 row bit for
// bit.
func TestFig11RowsBitPinned(t *testing.T) {
	rows := Fig11Fig12ProfilingOverhead()
	var vals []float64
	for _, r := range rows {
		vals = append(vals, float64(r.ChipGb), r.IntervalHours,
			r.BruteFraction, r.ReaperFrac, r.BruteProfilingW, r.ReaperProfilingW)
	}
	if len(rows) != 24 {
		t.Fatalf("got %d rows, want 24", len(rows))
	}
	const want = "6c54f4b5235e8356"
	if got := bitsDigest(vals); got != want {
		t.Errorf("fig11 bits digest = %s, want %s; rows: %+v", got, want, rows)
	}
}

// TestFig13ReducedBitPinned pins every cell of a reduced Fig 13 run under
// both cadence models bit for bit: 8 and 64 Gb; 512 ms, 1024 ms and no
// refresh; 4 mixes of 100k instructions per core.
func TestFig13ReducedBitPinned(t *testing.T) {
	cfg := DefaultFig13Config()
	cfg.ChipGbs = []int{8, 64}
	cfg.Intervals = []float64{0.512, 1.024, 0}
	cfg.Mixes = 4
	cfg.InstructionsPerCore = 100_000
	res, err := Fig13EndToEnd(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name  string
		cells []Fig13Cell
		want  string
	}{
		{"paper-implied", res.PaperImplied, "1f5a4c1ea89ffbf2"},
		{"longevity", res.Longevity, "87b9a1bb7b2f2fa5"},
	} {
		if len(m.cells) != 18 {
			t.Fatalf("%s: got %d cells, want 18", m.name, len(m.cells))
		}
		var vals []float64
		for _, c := range m.cells {
			vals = append(vals, float64(c.ChipGb), c.IntervalS,
				c.PerfGain.Min, c.PerfGain.P25, c.PerfGain.Median, c.PerfGain.P75, c.PerfGain.Max, c.PerfGain.Mean,
				c.PowerReduction.Min, c.PowerReduction.P25, c.PowerReduction.Median,
				c.PowerReduction.P75, c.PowerReduction.Max, c.PowerReduction.Mean,
				c.OverheadFraction, c.CadenceHours)
		}
		if got := bitsDigest(vals); got != m.want {
			t.Errorf("%s bits digest = %s, want %s; cells: %+v", m.name, got, m.want, m.cells)
		}
	}
}
