package firmware

import (
	"context"
	"math"
	"slices"
	"testing"
)

// TestResilienceLadderScriptPinned drives the controller at its standard
// thresholds through a scripted run of scrub windows — escapes, UEs and
// clean stretches, with an early round run whenever one falls due — and
// pins every operating point and every event bit for bit: the 2-error
// correctable budget, the 0.5 h to 8 h backoff, two widening steps of
// 128 ms and 4 iterations, the derived ladder and the 6-window recovery
// base with its doubling.
func TestResilienceLadderScriptPinned(t *testing.T) {
	ce := Telemetry{WindowSeconds: 3600, Corrected: 5}                   // over the budget
	ue := Telemetry{WindowSeconds: 3600, Corrected: 1, Uncorrectable: 1} // budget breached
	clean := Telemetry{WindowSeconds: 3600, Corrected: 2}                // at the budget
	script := []Telemetry{clean, ce, ce, ue, ce, ue}
	for _, run := range []struct {
		tel Telemetry
		n   int
	}{{ce, 12}, {clean, 26}, {ue, 1}, {clean, 50}} {
		for range run.n {
			script = append(script, run.tel)
		}
	}

	// The operating point after window from, held until the next row's
	// window: degrade level, interval, widening steps, early rounds run,
	// and the pending early reprofile's clock in hours (-1: none pending).
	type point struct {
		from, level int
		intervalMs  float64
		widen       int
		earlyRounds int
		earlyAt     uint64
	}
	points := []point{
		{0, 0, 1024, 0, 0, 0xbff0000000000000},
		{1, 0, 1024, 0, 0, 0x400408b2e72da122}, // 2.504 h
		{2, 0, 1024, 1, 1, 0x401008b2e72da120}, // 4.008 h
		{3, 1, 512, 2, 2, 0x401820a166b34baa},  // 6.032 h
		{5, 2, 256, 2, 3, 0x402427d1dd89faf3},  // 10.078 h
		{9, 2, 256, 2, 4, 0x40321fa983dd2809},  // 18.124 h
		{17, 2, 256, 2, 5, 0x403a2b6a18f55298}, // 26.170 h
		{25, 2, 256, 2, 6, 0xbff0000000000000},
		{41, 1, 512, 2, 6, 0xbff0000000000000}, // recovered after 24 clean windows
		{44, 2, 256, 2, 6, 0x4046db955706be94}, // 45.715 h
		{45, 2, 256, 2, 7, 0xbff0000000000000},
		{92, 1, 512, 2, 7, 0xbff0000000000000}, // recovered after 48 clean windows
	}
	events := []Event{
		{math.Float64frombits(0x400008b2e72da122), EventEarlyReprofile, "scheduled in 0.50 h (5 corrected, 0 UE)"},
		{math.Float64frombits(0x40081165ce5b4241), EventWiden, "step 1: delta interval 378 ms, 5 iterations"},
		{math.Float64frombits(0x40081165ce5b4241), EventEarlyReprofile, "scheduled in 1.00 h (5 corrected, 0 UE)"},
		{math.Float64frombits(0x401020a166b34ba9), EventDegrade, "1 UE in window, interval 512 ms (level 1)"},
		{math.Float64frombits(0x401020a166b34ba9), EventWiden, "step 2: delta interval 506 ms, 9 iterations"},
		{math.Float64frombits(0x401020a166b34ba9), EventEarlyReprofile, "scheduled in 2.00 h (1 corrected, 1 UE)"},
		{math.Float64frombits(0x40184fa3bb13f5e7), EventDegrade, "1 UE in window, interval 256 ms (level 2)"},
		{math.Float64frombits(0x40184fa3bb13f5e7), EventEarlyReprofile, "scheduled in 4.00 h (1 corrected, 1 UE)"},
		{math.Float64frombits(0x40243f5307ba5012), EventEarlyReprofile, "scheduled in 8.00 h (5 corrected, 0 UE)"},
		{math.Float64frombits(0x40322b6a18f55298), EventEarlyReprofile, "scheduled in 8.00 h (5 corrected, 0 UE)"},
		{math.Float64frombits(0x40451b955706be94), EventRecover, "after 24 clean windows, interval 512 ms (level 1)"},
		{math.Float64frombits(0x40469b955706be94), EventDegrade, "1 UE in window, interval 256 ms (level 2)"},
		{math.Float64frombits(0x40469b955706be94), EventEarlyReprofile, "scheduled in 0.50 h (1 corrected, 1 UE)"},
		{math.Float64frombits(0x405750bad0c969ee), EventRecover, "after 48 clean windows, interval 512 ms (level 1)"},
	}

	st := newStation(t, 31)
	cfg := quickCfg()
	cfg.Resilience = true
	m, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.512, 0.256, 0.128, 0.064}; !slices.Equal(m.ladder, want) {
		t.Fatalf("degrade ladder %v, want %v", m.ladder, want)
	}
	ctx := context.Background()
	next := 0
	for i, tel := range script {
		st.Wait(3600)
		if _, err := m.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		m.ReportScrub(tel)
		if next < len(points) && points[next].from == i {
			next++
		}
		want := points[next-1]
		earlyAt := -1.0
		if m.earlyPending {
			earlyAt = (m.earlyAt - m.startClock) / 3600
		}
		got := point{want.from, m.DegradeLevel(), m.CurrentInterval() * 1000, m.WidenSteps(), m.EarlyRounds(), math.Float64bits(earlyAt)}
		if got != want {
			t.Fatalf("after window %d: got %+v, want %+v (early reprofile at %v h)", i, got, want, earlyAt)
		}
	}
	if got := m.Events(); !slices.Equal(got, events) {
		t.Errorf("events:\n got %+v\nwant %+v", got, events)
	}
}
