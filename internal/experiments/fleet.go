package experiments

import "reaper/internal/parallel"

// Fleet-scale execution: population sweeps and soaks run over arbitrarily
// large fleets in O(live chips + summaries) memory.
//
// The unit of fleet state is a compact, seed-derived description of a chip
// (a ChipSpec / dram.ChipRef — a few words), not a live *dram.Device (tens
// of megabytes of sampled weak cells and content bits). Each job
// materializes its chip, runs it to a compact result and drops every dense
// structure before its worker takes the next job, so capping the worker
// pool at the shard size caps how many devices are live at once. Nothing
// about a chip's evaluation depends on any other chip — every job is
// independently seeded — so results are byte-identical at any worker count
// and shard size.

// fleetWorkers bounds a worker pool by the shard size so the number of
// concurrently materialized devices never exceeds it. A shardSize <= 0 (no
// cap) leaves workers untouched; workers <= 0 resolves to the parallel
// package's default first so the clamp applies to the real pool size.
func fleetWorkers(workers, shardSize int) int {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if shardSize > 0 && workers > shardSize {
		workers = shardSize
	}
	return workers
}
