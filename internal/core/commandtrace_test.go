package core

import (
	"fmt"
	"math"
	"testing"

	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/patterns"
)

// This file stands in for the paper's logic analyzer (Section 4: "Our
// infrastructure provides precise control over DRAM commands, which we
// verified via a logic analyzer by probing the DRAM command bus"). A
// recordingStation wraps the station a profiler drives and logs every
// command-bus call with the span of simulated clock it took;
// verifyCommands checks the log against the invariants a retention test
// depends on — above all, that refresh is off for exactly the wait windows
// Algorithm 1 means to be retention windows, and that data passes take the
// time the configured bandwidth implies.

// cmdKind enumerates the recorded command-bus calls.
type cmdKind int

const (
	cmdWritePass cmdKind = iota
	cmdReadPass
	cmdRefreshOn
	cmdRefreshOff
	cmdWait
	cmdSetAmbient
)

// String names the command kind as it appears in verifier errors.
func (k cmdKind) String() string {
	switch k {
	case cmdWritePass:
		return "WRITE-PASS"
	case cmdReadPass:
		return "READ-PASS"
	case cmdRefreshOn:
		return "REF-ON"
	case cmdRefreshOff:
		return "REF-OFF"
	case cmdWait:
		return "WAIT"
	case cmdSetAmbient:
		return "SET-AMBIENT"
	default:
		return fmt.Sprintf("cmdKind(%d)", int(k))
	}
}

// command is one recorded call: its kind, the simulated clock before and
// after it, and its argument (the wait length or the ambient setpoint).
type command struct {
	kind       cmdKind
	start, end float64
	arg        float64
}

// recordingStation is a TestStation that logs each command-bus call of the
// station it wraps.
type recordingStation struct {
	TestStation
	cmds []command
}

func (r *recordingStation) record(kind cmdKind, arg float64, call func()) {
	start := r.Clock()
	call()
	r.cmds = append(r.cmds, command{kind: kind, start: start, end: r.Clock(), arg: arg})
}

func (r *recordingStation) WritePattern(p dram.RowData) {
	r.record(cmdWritePass, 0, func() { r.TestStation.WritePattern(p) })
}

func (r *recordingStation) ReadCompare() (fails []uint64) {
	r.record(cmdReadPass, 0, func() { fails = r.TestStation.ReadCompare() })
	return fails
}

func (r *recordingStation) DisableRefresh() {
	r.record(cmdRefreshOff, 0, r.TestStation.DisableRefresh)
}

func (r *recordingStation) EnableRefresh() {
	r.record(cmdRefreshOn, 0, r.TestStation.EnableRefresh)
}

func (r *recordingStation) Wait(seconds float64) {
	r.record(cmdWait, seconds, func() { r.TestStation.Wait(seconds) })
}

func (r *recordingStation) SetAmbient(tempC float64) (got float64) {
	r.record(cmdSetAmbient, tempC, func() { got = r.TestStation.SetAmbient(tempC) })
	return got
}

// verifyCommands checks a recorded command stream against the station's
// whole-device pass time and the retention-test invariants:
//
//  1. commands are totally ordered in time and never overlap;
//  2. every whole-device pass takes exactly the bandwidth-implied time;
//  3. every wait takes exactly the time it asked for;
//  4. refresh-control transitions alternate (no double enable or disable),
//     so no refresh command falls inside a refresh-disabled wait window.
func verifyCommands(cmds []command, pass float64) error {
	prevEnd := math.Inf(-1)
	refreshOn := true // stations power up with refresh enabled
	for i, c := range cmds {
		if c.end < c.start {
			return fmt.Errorf("command %d (%v) ends before it starts", i, c.kind)
		}
		if c.start < prevEnd-1e-12 {
			return fmt.Errorf("command %d (%v) overlaps its predecessor", i, c.kind)
		}
		prevEnd = c.end
		switch c.kind {
		case cmdWritePass, cmdReadPass:
			if math.Abs((c.end-c.start)-pass) > 1e-9 {
				return fmt.Errorf("command %d (%v) took %vs, want the bandwidth-implied %vs",
					i, c.kind, c.end-c.start, pass)
			}
		case cmdWait:
			if math.Abs((c.end-c.start)-c.arg) > 1e-9 {
				return fmt.Errorf("command %d waited %vs, want %vs", i, c.end-c.start, c.arg)
			}
		case cmdRefreshOff:
			if !refreshOn {
				return fmt.Errorf("command %d disables refresh twice", i)
			}
			refreshOn = false
		case cmdRefreshOn:
			if refreshOn {
				return fmt.Errorf("command %d enables refresh twice", i)
			}
			refreshOn = true
		}
	}
	return nil
}

// waitWindows returns the length of every wait taken with refresh disabled:
// the retention windows of Algorithm 1.
func waitWindows(cmds []command) []float64 {
	var out []float64
	refreshOn := true
	for _, c := range cmds {
		switch c.kind {
		case cmdRefreshOff:
			refreshOn = false
		case cmdRefreshOn:
			refreshOn = true
		case cmdWait:
			if !refreshOn {
				out = append(out, c.arg)
			}
		}
	}
	return out
}

// passSeconds is the whole-device pass time of a station's device.
func passSeconds(st *memctrl.Station) float64 {
	return memctrl.PassSeconds(st.Device().Geometry().TotalBytes())
}

func TestCommandTraceRecordsAlgorithm1Loop(t *testing.T) {
	st := newStation(t, 3)
	rec := &recordingStation{TestStation: st}
	opt := Options{Iterations: 1, Patterns: []patterns.Pattern{patterns.Checkerboard()}}
	if _, err := BruteForce(rec, 1.024, opt); err != nil {
		t.Fatal(err)
	}
	want := []cmdKind{cmdWritePass, cmdRefreshOff, cmdWait, cmdRefreshOn, cmdReadPass}
	if len(rec.cmds) != len(want) {
		t.Fatalf("got %d commands, want %d: %v", len(rec.cmds), len(want), rec.cmds)
	}
	for i, k := range want {
		if rec.cmds[i].kind != k {
			t.Errorf("command %d = %v, want %v", i, rec.cmds[i].kind, k)
		}
	}
	if err := verifyCommands(rec.cmds, passSeconds(st)); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	if windows := waitWindows(rec.cmds); len(windows) != 1 || windows[0] != 1.024 {
		t.Errorf("wait windows = %v, want [1.024]", windows)
	}
}

// TestCommandTraceVerifiesBruteForce checks that a whole brute-force
// profiling run toggles refresh and paces its commands exactly as
// Algorithm 1 demands — the simulated equivalent of the paper's
// logic-analyzer check.
func TestCommandTraceVerifiesBruteForce(t *testing.T) {
	st := newStation(t, 4)
	rec := &recordingStation{TestStation: st}
	opt := Options{Iterations: 2, FreshRandomPerIteration: true, Seed: 4}
	if _, err := BruteForce(rec, 0.512, opt); err != nil {
		t.Fatal(err)
	}
	if err := verifyCommands(rec.cmds, passSeconds(st)); err != nil {
		t.Fatalf("profiling trace failed verification: %v", err)
	}
	// 2 iterations x 12 patterns: every retention window is 512ms.
	windows := waitWindows(rec.cmds)
	if len(windows) != 24 {
		t.Fatalf("got %d retention windows, want 24", len(windows))
	}
	for _, w := range windows {
		if w != 0.512 {
			t.Fatalf("retention window = %v, want 0.512", w)
		}
	}
}

// TestCommandTraceVerifiesReach checks reach profiling on a chamber
// station: the chamber is raised by the reach temperature before the first
// pass and returned after the last, and every retention window is the
// target interval plus the reach interval.
func TestCommandTraceVerifiesReach(t *testing.T) {
	st, err := mkChamberStation(5)()
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingStation{TestStation: st}
	orig := st.Ambient()
	reach := ReachConditions{DeltaInterval: 0.25, DeltaTempC: 5}
	if _, err := Reach(rec, 0.256, reach, Options{Iterations: 2}); err != nil {
		t.Fatal(err)
	}
	if err := verifyCommands(rec.cmds, passSeconds(st)); err != nil {
		t.Fatalf("reach trace failed verification: %v", err)
	}
	first, last := rec.cmds[0], rec.cmds[len(rec.cmds)-1]
	if first.kind != cmdSetAmbient || first.arg != orig+5 || first.end <= first.start {
		t.Errorf("first command %+v, want a chamber settle to %v", first, orig+5)
	}
	if last.kind != cmdSetAmbient || last.arg != orig {
		t.Errorf("last command %+v, want a return to %v", last, orig)
	}
	windows := waitWindows(rec.cmds)
	if len(windows) != 24 {
		t.Fatalf("got %d retention windows, want 24", len(windows))
	}
	for _, w := range windows {
		if w != 0.256+0.25 {
			t.Fatalf("retention window = %v, want %v", w, 0.256+0.25)
		}
	}
}

func TestVerifyCommandsCatchesViolations(t *testing.T) {
	const pass = 0.125
	for _, tc := range []struct {
		name string
		cmds []command
	}{
		{"overlapping commands", []command{
			{kind: cmdWritePass, start: 0, end: pass},
			{kind: cmdReadPass, start: pass / 2, end: pass/2 + pass},
		}},
		{"impossibly fast pass", []command{{kind: cmdWritePass, start: 0, end: pass / 2}}},
		{"double refresh-off", []command{
			{kind: cmdRefreshOff, start: 0, end: 0},
			{kind: cmdRefreshOff, start: 1, end: 1},
		}},
		// Stations power up with refresh enabled.
		{"double refresh-on", []command{{kind: cmdRefreshOn, start: 0, end: 0}}},
		{"short wait", []command{{kind: cmdWait, start: 0, end: 0.5, arg: 1}}},
		{"time-reversed command", []command{{kind: cmdWait, start: 5, end: 4, arg: -1}}},
	} {
		if err := verifyCommands(tc.cmds, pass); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestCmdKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := cmdWritePass; k <= cmdSetAmbient; k++ {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate kind string %q", s)
		}
		seen[s] = true
	}
	if cmdKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}
