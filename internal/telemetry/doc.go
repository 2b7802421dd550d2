// Package telemetry is the repository's observability layer: a stdlib-only,
// allocation-light metrics registry, a structured event trace ring buffer,
// and opt-in runtime profiling hooks (pprof). It exists so a multi-week soak
// campaign or a tradeoff sweep can be *watched* — scrub pressure, VRT escape
// rates, reach-decision histograms, pool throughput — instead of judged only
// from the single JSON blob emitted at the end.
//
// # The determinism contract
//
// Everything this repository pins — golden snapshots, figure tables, the
// soak survival report — is byte-identical for a fixed seed at any worker
// count, and telemetry must not be the component that breaks that. The
// package therefore follows three rules:
//
//   - Logical time only. Metrics and trace events are stamped with simulated
//     clocks (station seconds, profiling rounds, scrub windows), never the
//     wall clock. The package imports neither "time" nor anything else that
//     could observe the host.
//
//   - Commutative aggregation. Counters and histograms mutate only by
//     integer atomic adds (histogram sums are accumulated in fixed-point
//     micro-units), so concurrent updates from an internal/parallel pool
//     reach the same final state regardless of interleaving. Snapshot output
//     is sorted by metric name and canonical label set, so serialization is
//     byte-identical for workers=1 and workers=8. MergeSnapshot folds one
//     registry into another by the same adds (gauges are set), so owners
//     recording into registries of their own merge in any order.
//
//   - Single-writer gauges and tracers. A gauge is last-write-wins and a
//     tracer records arrival order, so each must have exactly one logical
//     owner. Per-instance label sets (for gauges) and per-chip tracers
//     merged with Merge (for traces) keep concurrent fleets deterministic.
//
// Metrics whose value depends on the worker count (actual goroutines
// launched, live pool occupancy) are deliberately not recorded anywhere in
// this repository: they would poison the workers=1 vs workers=8 golden
// comparison. Throughput is instead observed through worker-count-invariant
// series (jobs queued/completed, jobs per batch).
//
// # Typical use
//
//	reg := telemetry.New()
//	ctx := telemetry.WithRegistry(ctx, reg)       // pool + harness metrics
//	mgr.Instrument(reg, tracer, telemetry.L("chip", "0"))
//	...
//	snap := reg.Snapshot()                        // sorted, stable
//	err := snap.WriteFile("metrics.json")         // or WriteJSON(w)
//
// A nil *Registry, *Counter, *Gauge, *Histogram, or *Tracer is a valid
// no-op, so instrumented code never branches on "is telemetry enabled".
package telemetry
