// Package exitcode defines the uniform process exit codes shared by the
// reaper command-line tools, so scripts and CI can distinguish "the
// campaign ran and the fleet failed its criterion" from "the tool could not
// run" from "stop requested, resume later" without parsing logs. The full
// table is documented in OBSERVABILITY.md.
package exitcode

const (
	// OK: the run completed and every acceptance criterion was met.
	OK = 0
	// Violated: the run completed but the survival/acceptance criterion
	// was violated (e.g. a soak fleet exceeded its UBER budget).
	Violated = 1
	// ConfigError: configuration or runtime error; the run did not produce
	// a usable report.
	ConfigError = 2
	// PartialCoverage: the run completed but one or more shards were
	// quarantined after exhausting their retry budget; the report covers
	// only the surviving shards and enumerates the quarantined ones.
	PartialCoverage = 3
	// Interrupted: a checkpointed campaign stopped on request
	// (SIGINT/SIGTERM or -stop-after-checkpoints), every chip that had
	// started stopped at one of its saves. The checkpoint directory holds
	// each chip's newest save; rerun with -resume to continue.
	Interrupted = 4
)
