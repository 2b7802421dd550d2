package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"reaper/client"
	"reaper/internal/parallel"
	"reaper/internal/reaperd"
	"reaper/internal/rng"
	"reaper/internal/stats"
	"reaper/internal/telemetry"
	"reaper/internal/testprog"
)

const (
	// serviceRate is the open-loop arrival rate, about a third of what the
	// service sustains on 2 CPUs, so queueing shows in the tail without a
	// backlog building.
	serviceRate = 120.0
	// deviceShare of arrivals are device programs; the rest profile.
	deviceShare = 0.8
	// pollInterval is the collector's status-poll period, and so the
	// resolution of the queue-wait and run-time rows.
	pollInterval = time.Millisecond
	// programTimeout fails a program that has not finished this long after
	// it was due.
	programTimeout = 30 * time.Second
	// Pool sizes: arrivals draw from a fixed pool of programs, so every
	// program repeats and must return byte-identical results each time.
	devicePool, profilePool = 8, 4
)

// deviceProgram is the reaperd -selftest program shape: one 1 Mbit chip,
// one retention test and a classification.
func deviceProgram(seed uint64, _ bool) []byte {
	return []byte(fmt.Sprintf(`{"version": 1, "name": "bench-device", "seed": %d,
  "fleet": {"bits": 1048576, "weak_scale": 40},
  "stages": [
    {"type": "write_pattern", "pattern": "checker"},
    {"type": "disable_refresh"},
    {"type": "wait", "seconds": 2},
    {"type": "enable_refresh"},
    {"type": "read_compare", "label": "after-2s"},
    {"type": "classify", "target_interval_s": 1.024, "target_temp_c": 45}
  ],
  "output": {"failing_bits": 8, "include_metrics": true}}`, seed))
}

// profileProgram is a reach-profiling round on one 4 Mbit chip.
func profileProgram(seed uint64, tiny bool) []byte {
	bits, iterations := 4<<20, 4
	if tiny {
		bits, iterations = 1<<20, 1
	}
	return []byte(fmt.Sprintf(`{"version": 1, "name": "bench-profile", "seed": %d,
  "fleet": {"bits": %d, "weak_scale": 30},
  "stages": [
    {"type": "profile", "target_interval_s": 1.024, "delta_interval_s": 0.25, "iterations": %d, "fresh_random": true},
    {"type": "classify", "target_interval_s": 1.024, "target_temp_c": 45}
  ],
  "output": {"include_metrics": true}}`, seed, bits, iterations))
}

// poolProgram is one program of the service pool.
type poolProgram struct {
	kind string // "device" or "profile"
	key  string // golden key: kind/seed
	body []byte
}

func servicePool(rc runConfig) []poolProgram {
	var pool []poolProgram
	for i := 0; i < devicePool+profilePool; i++ {
		kind, seed, body := "device", rc.seed+uint64(i), deviceProgram
		if i >= devicePool {
			kind, seed, body = "profile", rc.seed+uint64(i-devicePool), profileProgram
		}
		pool = append(pool, poolProgram{kind: kind, key: fmt.Sprintf("%s/%d", kind, seed), body: body(seed, rc.tiny)})
	}
	return pool
}

// arrival is one scheduled submission.
type arrival struct {
	at   time.Duration // after the schedule starts
	prog int           // pool index
}

// schedule draws round(rate x seconds) Poisson arrivals over exactly the
// run's duration: exponential gaps, scaled so the process ends at the last
// gap. Conditioning on the count keeps the offered load identical across
// seeds; the arrival times are those of a Poisson process with that count.
func schedule(rc runConfig, seconds float64) []arrival {
	src := rng.Derive(rc.seed, 0x5E4F1CE)
	n := int(math.Round(serviceRate * seconds))
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = src.Exp(1)
		total += gaps[i]
	}
	out := make([]arrival, n)
	var t float64
	for k := range out {
		t += gaps[k]
		prog := devicePool + src.Intn(profilePool)
		if src.Float64() < deviceShare {
			prog = src.Intn(devicePool)
		}
		out[k] = arrival{at: time.Duration(t / total * seconds * float64(time.Second)), prog: prog}
	}
	return out
}

// programRec is one open-loop submission's client-side timeline.
type programRec struct {
	arrival
	id                                         string
	due, subStart, subEnd, started, done, recv time.Time
	err                                        string
	rejected                                   bool
	unit, span                                 int
}

// latencyMS is the time from when the program was due to its result bytes.
func (r *programRec) latencyMS() float64 { return float64(r.recv.Sub(r.due).Nanoseconds()) / 1e6 }

// roundResult is one server lifetime.
type roundResult struct {
	setup       float64 // seconds from server start to the end of warm-up
	recs        []*programRec
	phase       phase
	inFlightMax int
	heapP95     float64
	warmed      int // warm-up programs run
	problems    []string
}

// serviceRound starts a loopback reaperd, optionally warms it up with every
// pool program (closed loop, checking each result against ref), runs the
// open-loop schedule, and stops the server. Serve, the submitter, the result
// collector and the heap sampler are the four jobs of one parallel.Do.
func serviceRound(ctx context.Context, rc runConfig, pool []poolProgram, ref map[int]string, warm bool, sched []arrival, tr *tracer) (*roundResult, error) {
	start := time.Now()
	cfg := reaperd.Config{MaxConcurrent: 2, JobWorkers: 1}
	serveCtx := ctx
	if tr != nil {
		cfg.Telemetry = tr.reg
		serveCtx = telemetry.WithRegistry(ctx, tr.reg)
	}
	s := reaperd.New(cfg)
	if err := s.Start(ctx, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer s.Close()
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	c := client.New("http://" + s.Addr()).WithHTTPClient(&http.Client{Transport: transport})

	serveCtx, stopServe := context.WithCancel(serveCtx)
	defer stopServe()
	out := &roundResult{}
	subs := make(chan *programRec, len(sched)) // sized to the number of sends
	collected := make(chan struct{})
	var m *meter
	err := parallel.Do(ctx, 4,
		func(context.Context) error { return s.Serve(serveCtx) },
		func(ctx context.Context) error {
			defer close(subs)
			if warm {
				if err := warmUp(ctx, c, pool, ref, rc, out); err != nil {
					return err
				}
			}
			out.setup = time.Since(start).Seconds()
			m = startMeter()
			return submit(ctx, c, pool, sched, subs, tr)
		},
		func(ctx context.Context) error {
			defer close(collected)
			defer stopServe()
			return collect(ctx, c, pool, ref, subs, tr, out)
		},
		func(context.Context) error { out.heapP95 = liveHeapP95(collected); return nil },
	)
	if err != nil {
		return nil, err
	}
	if m != nil {
		m.stop(&out.phase)
		out.phase.heapP95 = out.heapP95
		if last := lastRecv(out.recs); !last.IsZero() {
			out.phase.wall = last.Sub(m.start).Seconds()
		}
	}
	return out, nil
}

func lastRecv(recs []*programRec) time.Time {
	var last time.Time
	for _, r := range recs {
		if r.recv.After(last) {
			last = r.recv
		}
	}
	return last
}

// warmUp runs every pool program once, closed loop. The first round's
// results become the reference digests (checked against the pinned ones);
// later rounds must reproduce them.
func warmUp(ctx context.Context, c *client.Client, pool []poolProgram, ref map[int]string, rc runConfig, out *roundResult) error {
	for i, p := range pool {
		st, err := c.Submit(ctx, p.body)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", p.key, err)
		}
		if st, err = c.Wait(ctx, st.ID, pollInterval); err != nil {
			return fmt.Errorf("warm-up %s: %w", p.key, err)
		}
		if st.State != reaperd.StateDone {
			return fmt.Errorf("warm-up %s finished %s: %s", p.key, st.State, st.Error)
		}
		body, err := c.ResultBytes(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", p.key, err)
		}
		out.warmed++
		d := digest(body)
		want, seen := ref[i]
		switch {
		case !seen:
			ref[i] = d
			if pinned, ok := golden()["service"][p.key]; ok && !rc.tiny && pinned != d {
				out.problems = append(out.problems, fmt.Sprintf("service %s: digest %s, pinned %s", p.key, d[:12], pinned[:12]))
			}
		case want != d:
			out.problems = append(out.problems, fmt.Sprintf("service %s: warm-up result differs from the first run", p.key))
		}
	}
	return nil
}

// submit sends the schedule open-loop: each program at its due time,
// whether or not earlier ones have finished.
func submit(ctx context.Context, c *client.Client, pool []poolProgram, sched []arrival, subs chan<- *programRec, tr *tracer) error {
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		r := &programRec{arrival: a, due: due, subStart: time.Now(), unit: k, span: -1}
		send := func(ctx context.Context) {
			st, err := c.Submit(ctx, pool[a.prog].body)
			var apiErr *client.APIError
			switch {
			case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests:
				r.rejected, r.err = true, err.Error()
			case err != nil:
				r.err = err.Error()
			default:
				r.id = st.ID
			}
		}
		if tr != nil {
			r.span = tr.begin("reaperd.program", -1, k)
			tr.do(ctx, r.span, k, "reaperd.submit", func(ctx context.Context, _ int) { send(ctx) })
		} else {
			send(ctx)
		}
		r.subEnd = time.Now()
		subs <- r
	}
	return nil
}

// collect polls every in-flight program's status each pollInterval, fetches
// each result as soon as its program is done, and checks the bytes against
// the pool program's reference digest.
func collect(ctx context.Context, c *client.Client, pool []poolProgram, ref map[int]string, subs <-chan *programRec, tr *tracer, out *roundResult) error {
	var active []*programRec
	finish := func(r *programRec) {
		out.recs = append(out.recs, r)
		if tr != nil {
			tr.end(r.span)
		}
	}
	take := func(r *programRec) {
		if r.err != "" {
			finish(r)
			return
		}
		active = append(active, r)
	}
	open := true
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for open || len(active) > 0 {
		if len(active) == 0 {
			select {
			case r, ok := <-subs:
				if !ok {
					open = false
					continue
				}
				take(r)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		for drained := false; open && !drained; {
			select {
			case r, ok := <-subs:
				if !ok {
					open = false
				} else {
					take(r)
				}
			default:
				drained = true
			}
		}
		out.inFlightMax = max(out.inFlightMax, len(active))
		keep := active[:0]
		for _, r := range active {
			if !poll(ctx, c, pool, ref, r, tr) {
				keep = append(keep, r)
				continue
			}
			finish(r)
		}
		active = keep
		if len(active) > 0 {
			select {
			case <-tick.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// poll advances one program's timeline and reports whether it finished.
func poll(ctx context.Context, c *client.Client, pool []poolProgram, ref map[int]string, r *programRec, tr *tracer) bool {
	st, err := c.Status(ctx, r.id)
	now := time.Now()
	if err != nil {
		r.err = err.Error()
		return true
	}
	switch st.State {
	case reaperd.StateQueued:
		if now.Sub(r.due) > programTimeout {
			r.err = "timed out"
			return true
		}
		return false
	case reaperd.StateRunning:
		if r.started.IsZero() {
			r.started = now
		}
		return false
	case reaperd.StateDone:
	default:
		r.err = fmt.Sprintf("program %s finished %s: %s", r.id, st.State, st.Error)
		return true
	}
	if r.started.IsZero() {
		r.started = now
	}
	r.done = now
	var body []byte
	fetch := func(ctx context.Context) { body, err = c.ResultBytes(ctx, r.id) }
	if tr != nil {
		tr.do(ctx, r.span, r.unit, "reaperd.result", func(ctx context.Context, _ int) { fetch(ctx) })
	} else {
		fetch(ctx)
	}
	r.recv = time.Now()
	switch {
	case err != nil:
		r.err = err.Error()
	case digest(body) != ref[r.prog]:
		r.err = fmt.Sprintf("%s: result differs from its earlier runs", pool[r.prog].key)
	case tr != nil:
		traceResult(tr, pool[r.prog].kind, body)
	}
	return true
}

// traceResult counts a traced program's layer calls: one chip materialized
// per program, and the deterministic counters of its embedded metrics
// snapshot (profiling passes, sweeps) folded into the run's registry.
func traceResult(tr *tracer, kind string, body []byte) {
	tr.add("dram.materialize", 1)
	tr.add("testprog."+kind, 1)
	var res testprog.Result
	if json.Unmarshal(body, &res) != nil || res.Metrics == nil {
		return
	}
	for _, c := range res.Metrics.Counters {
		tr.reg.Counter(c.Name, c.Labels...).Add(c.Value)
	}
}

// runService measures the service workload: setupReps server lifetimes, each
// set up and warmed up (setup_s is their median), the last one running the
// open-loop schedule. With rc.trace, the schedule gets half the time and
// one more server, traced and not warmed up, replays it.
func runService(ctx context.Context, rc runConfig, rep *report) error {
	pool := servicePool(rc)
	ref := map[int]string{}
	seconds := rc.seconds
	if rc.trace {
		seconds /= 2
	}
	sched := schedule(rc, seconds)
	var setups []float64
	var timed *roundResult
	for r := 0; r < setupReps; r++ {
		var s []arrival
		if r == setupReps-1 {
			s = sched
		}
		res, err := serviceRound(ctx, rc, pool, ref, true, s, nil)
		if err != nil {
			return err
		}
		setups = append(setups, res.setup)
		rep.Result.Attempted += res.warmed
		for _, p := range res.problems {
			rep.fail("%s", p)
		}
		timed = res
	}
	timed.phase.latMS = programLatencies(rep, timed.recs)
	endToEnd(rep, setups, timed.phase)
	if !rc.trace {
		return nil
	}

	tr := newTracer(rc.workload)
	traced, err := serviceRound(ctx, rc, pool, ref, false, sched, tr)
	if err != nil {
		return err
	}
	traced.phase.latMS = programLatencies(rep, traced.recs)
	cal, err := calibrate(ctx, rc)
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	serviceRows(rep, traced, cal)
	layerRows(rep, rc, tr, cal, timed.phase, traced.phase)
	rep.spans = tr.spans
	return nil
}

// programLatencies counts every submission as attempted and every failed,
// rejected or timed-out one as failed, and returns the completed programs'
// latencies.
func programLatencies(rep *report, recs []*programRec) []float64 {
	var lat []float64
	for _, r := range recs {
		rep.Result.Attempted++
		if r.err != "" {
			rep.fail("program %d (%s): %s", r.prog, r.id, r.err)
			continue
		}
		lat = append(lat, r.latencyMS())
	}
	return lat
}

// serviceRows sets the reaperd and load-generator rows from the traced
// round's client-side timelines.
func serviceRows(rep *report, res *roundResult, cal calib) {
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	var submitMS, queueMS, runMS, resultMS, overheadMS, lateMS []float64
	rejected := 0
	for _, r := range res.recs {
		lateMS = append(lateMS, math.Max(0, ms(r.due, r.subStart)))
		if r.rejected {
			rejected++
		}
		if r.err != "" {
			continue
		}
		run := cal.runDevice
		if r.prog >= devicePool {
			run = cal.runProfile
		}
		submitMS = append(submitMS, ms(r.subStart, r.subEnd))
		queueMS = append(queueMS, ms(r.subEnd, r.started))
		runMS = append(runMS, ms(r.started, r.done))
		resultMS = append(resultMS, ms(r.done, r.recv))
		overheadMS = append(overheadMS, r.latencyMS()-run)
	}
	p := stats.Percentile
	rep.layer("reaperd.submit_ms", "ms", p(submitMS, 50))
	rep.layer("reaperd.queue_wait_p50_ms", "ms", p(queueMS, 50))
	rep.layer("reaperd.queue_wait_p99_ms", "ms", p(queueMS, 99))
	rep.layer("reaperd.run_ms", "ms", p(runMS, 50))
	rep.layer("reaperd.result_ms", "ms", p(resultMS, 50))
	rep.layer("reaperd.overhead_ms", "ms", p(overheadMS, 50))
	rep.layer("reaperd.rejected", "count", float64(rejected))
	rep.layer("reaperd.in_flight_max", "count", float64(res.inFlightMax))
	rep.layer("loadgen.late_ms_p99", "ms", p(lateMS, 99))
	rep.layer("loadgen.late_ms_max", "ms", p(lateMS, 100))
}
