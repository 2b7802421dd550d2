package experiments

import (
	"fmt"
	"sync"

	"reaper/internal/rng"
)

// crashPlan is the crash-injection harness for checkpointed campaigns: a
// seed-driven schedule of worker kills, armed through
// CheckpointOptions.beforeSegment. Each (segment, chip) pair draws an
// independent Bernoulli decision from a seed-derived stream, so the schedule
// is a pure function of the seed — independent of worker count, execution
// order, and retries — and a crash-injected run is reproducible exactly.
//
// A drawn crash fires at most once: the retry of a killed chip restarts
// from its newest save, observes fire() == false for that segment and
// continues, which is precisely the recovery path the checkpoint layer must
// prove byte-identical to an uninterrupted run.
type crashPlan struct {
	seed uint64
	prob float64

	mu     sync.Mutex
	fired  map[[2]int]bool
	poison map[int]bool
}

// newCrashPlan builds a plan that kills each (segment, chip) execution with
// the given probability. prob <= 0 never fires; prob >= 1 kills every shard
// once.
func newCrashPlan(seed uint64, prob float64) *crashPlan {
	return &crashPlan{seed: seed, prob: prob, fired: map[[2]int]bool{}, poison: map[int]bool{}}
}

// arm returns checkpoint options whose jobs the plan kills by panicking.
func (p *crashPlan) arm() *CheckpointOptions {
	return &CheckpointOptions{beforeSegment: func(segment, chip int) {
		if p.fire(segment, chip) {
			panic(fmt.Sprintf("injected crash: segment %d chip %d", segment, chip))
		}
	}}
}

// poisonChips marks chips whose every execution crashes, never latched:
// unlike a transient kill, a poisoned shard fails each retry too, so it
// exhausts its attempt budget and lands in quarantine.
func (p *crashPlan) poisonChips(chips ...int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range chips {
		p.poison[c] = true
	}
}

// fire reports whether the worker running the given segment of the given
// chip should be killed now. The decision is deterministic per (segment,
// chip); the first true is latched so the shard's retry survives.
func (p *crashPlan) fire(segment, chip int) bool {
	p.mu.Lock()
	poisoned := p.poison[chip]
	p.mu.Unlock()
	if poisoned {
		return true
	}
	if p.prob <= 0 {
		return false
	}
	// A derived stream per (segment, chip): one draw, no shared state, so
	// concurrent shards never contend on a generator.
	salt := uint64(segment)*0x9e3779b97f4a7c15 + uint64(chip) + 1
	if rng.Derive(p.seed, salt).Float64() >= p.prob {
		return false
	}
	key := [2]int{segment, chip}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fired[key] {
		return false
	}
	p.fired[key] = true
	return true
}

// firedCount returns how many crashes the plan has injected so far.
func (p *crashPlan) firedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fired)
}
