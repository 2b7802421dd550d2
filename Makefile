GO ?= go

.PHONY: all build vet fmt-check test race check bench bench-test bench-go fuzz-quick soak-quick soak-resume-quick serve-quick lint lint-json lint-fixtures

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails if any tracked .go file needs gofmt. testdata/ is exempt:
# it holds deliberately malformed lint fixtures. CI runs this same target.
fmt-check:
	@unformatted=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

test:
	$(GO) test ./...

# race runs the full suite under the race detector. The determinism tests
# (internal/experiments, internal/module, internal/parallel) drive the
# worker pool at workers=8, so this exercises the parallel fleet paths.
# Race instrumentation slows the experiments suite well past go test's
# default 10m per-package timeout, hence the explicit -timeout.
race:
	$(GO) test -race -timeout 45m ./...

# soak-quick runs a short deterministic fault-injection soak (2 chips,
# 48 simulated hours, pinned seed) and fails if the resilience controller
# lets any chip's UBER exceed the budget (cmd/soak exits non-zero).
soak-quick:
	$(GO) run ./cmd/soak -quick -seed 1 -out /dev/null

# soak-resume-quick is the crash-safe-resume drill (DESIGN.md section 8):
# run the quick soak with checkpointing and stop at the first barrier
# (exit 4, resumable interrupt), resume it, and require the resumed report
# to be byte-identical to an uninterrupted run of the same seed.
RESUME_DIR := /tmp/reaper-resume-quick
soak-resume-quick:
	rm -rf $(RESUME_DIR) && mkdir -p $(RESUME_DIR)
	$(GO) build -o $(RESUME_DIR)/soak ./cmd/soak
	$(RESUME_DIR)/soak -quick -seed 1 -out $(RESUME_DIR)/ref.json
	$(RESUME_DIR)/soak -quick -seed 1 -checkpoint-dir $(RESUME_DIR)/ckpt \
		-checkpoint-every 8 -stop-after-checkpoints 1 -out /dev/null; \
		status=$$?; test $$status -eq 4 || \
		{ echo "soak-resume-quick: want exit 4 (resumable interrupt), got $$status"; exit 1; }
	$(RESUME_DIR)/soak -quick -seed 1 -checkpoint-dir $(RESUME_DIR)/ckpt \
		-checkpoint-every 8 -resume -out $(RESUME_DIR)/resumed.json
	cmp $(RESUME_DIR)/ref.json $(RESUME_DIR)/resumed.json
	@echo "soak-resume-quick: resumed report byte-identical to uninterrupted run"

# serve-quick is the profiling-service smoke test: cmd/reaperd -selftest
# starts the daemon on a loopback port, submits a small test program twice
# through the Go client, and requires both result documents byte-identical
# and structurally sound (API.md "Determinism contract"). Exits non-zero
# on any mismatch.
serve-quick:
	$(GO) run ./cmd/reaperd -selftest

# lint runs reaperlint, the repo's own determinism-and-safety analyzer suite
# (see DESIGN.md "Invariants"). Exits non-zero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/reaperlint -md ./...

# lint-json runs the same suite and also writes the stable machine-readable
# report (sorted findings + fired suppressions) that CI uploads as an
# artifact. Override LINT_JSON to choose the output path.
LINT_JSON ?= reaperlint.json
lint-json:
	$(GO) run ./cmd/reaperlint -md -json $(LINT_JSON) ./...

# lint-fixtures runs the analyzer fixture tests only (fast; -short skips the
# whole-repo scan that `make lint` already performs). Runs under -race like
# the rest of `make check`: the fixture loader is shared across subtests.
lint-fixtures:
	$(GO) test -race -short ./internal/lint

check: build vet fmt-check lint race bench-test soak-quick soak-resume-quick serve-quick

# bench runs the layered benchmark (cmd/bench) on all four workloads for
# 15 s each and prints every end-to-end metric by name with its unit; the
# metrics and their regression bounds are declared in BENCHMARK.json. Each
# workload checks its outputs against the digests pinned in
# cmd/bench/testdata/golden.json.
bench:
	bash cmd/bench/run.sh --workload all --seed 1 --seconds 15 --trace 0

# bench-test runs cmd/bench's own tests, including the golden-digest checks.
# cmd/bench is a separate module, so the root `go test ./...` never reaches it.
bench-test:
	cd cmd/bench && $(GO) test ./...

# fuzz-quick mutates the seed corpora of the three trust boundaries, one
# go test -fuzz run per package. RestoreDelta gets 30 s: any input must
# fail the restore or leave a device that sweeps, re-encodes and scores
# exactly without panicking. testprog.Load and checkpoint Store.Load get
# 15 s each: a program must fail to load or survive a Canonical round trip,
# and a checkpoint directory must fail to load or yield only regular .ckpt
# files inside it. Plain `go test` only replays the seeds; CI runs this
# target. Minimizing a new input grown from the ~60 KB many-injected-cells
# seed takes the whole 60 s default, which would leave the budget spent on
# shrinking instead of mutating, so minimization is capped at 5 s.
fuzz-quick:
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreDelta$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/dram
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/testprog
	$(GO) test -run '^$$' -fuzz '^FuzzStoreLoad$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/checkpoint

# bench-go runs every go-test benchmark once (compile/behavior smoke, not a
# measurement). -run '^$$' skips the tests, which `make test` already runs.
bench-go:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
