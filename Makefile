# Developer entry points. The Go toolchain is the only dependency.

.PHONY: build test vet lint lint-fix-hints lint-bench lint-stats lint-hatches fuzz-smoke race check bench ci test-kernels perfbench-test

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# lint runs the repo's own static-analysis suite (internal/lint): the
# syntactic rules randsource, wallclock, floateq, synccopy, allocfree,
# gobdeny and atomicwrite, the flow-sensitive rules maporder, errdiscard,
# lockbalance and seedflow, the interprocedural rules wiretaint, goroleak
# and transitive (call-graph summaries across packages), and the
# value-flow typestate rules chanlife, protoorder and scopedrop (channel
# lifecycle, wire-protocol frame ordering, cleanup obligations) — the
# reproducibility, hot-path, wire-format and durability invariants
# DESIGN.md's "Static analysis" section describes.
lint:
	go run ./cmd/fedmp-lint ./...

# lint-fix-hints prints each finding with its suggested rewrite.
lint-fix-hints:
	go run ./cmd/fedmp-lint -hints ./...

# lint-bench times the full-repo lint — load, type-check, call-graph and
# summary solve, all seventeen rules — and fails if it exceeds the budget.
# The budget is generous (the point is catching an accidental exponential
# blow-up in the interprocedural layer, not micro-regressions); override
# with LINT_BUDGET=30s for a tighter local check. The per-rule wall-time
# breakdown lands next to the run in lint-bench.json.
LINT_BUDGET ?= 120s
lint-bench:
	go run ./cmd/fedmp-lint -bench $(LINT_BUDGET) -bench-json lint-bench.json ./...

# lint-stats prints the rule/finding/hatch inventory: how many analyzers are
# registered, what they currently find, and where the //fedmp:<rule>-ok
# suppressions sit.
lint-stats:
	go run ./cmd/fedmp-lint -stats ./...

# lint-hatches audits every //fedmp:<rule>-ok suppression comment against a
# hatch-blind re-lint and fails when any suppresses nothing — stale hatches
# silently widen what future edits get away with on that line.
lint-hatches:
	go run ./cmd/fedmp-lint -hatches ./...

# fuzz-smoke gives each fuzz target a short budget: the CFG builder under
# the flow-sensitive lint rules, and the wire-codec frame reader. Long
# campaigns stay manual; this catches the crashes a code change introduces.
FUZZTIME ?= 10s
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzBuildCFG -fuzztime $(FUZZTIME) ./internal/lint
	go test -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/transport/codec

# race runs the whole suite under the race detector; the concurrent round
# loop (quorum collection, worker rejoin, fault-injected engines), the
# row-sharded GEMM path and the buffer-reusing nn layers are the sensitive
# paths.
race:
	go test -race ./...

# bench regenerates the committed benchmark reports: BENCH_kernels.json
# (kernel micro-benchmarks with speedups over the seed kernels, see
# EXPERIMENTS.md), BENCH_wire.json (frame codec vs gob encode/decode,
# bytes/round across the pruning-ratio sweep, sparse-upload savings) and
# BENCH_sim.json (virtual-time scheduler events/sec and heap growth across
# 1e3/1e5/1e6-device populations).
bench:
	go run ./cmd/fedmp-bench -bench-json BENCH_kernels.json
	go run ./cmd/fedmp-bench -wire-json BENCH_wire.json
	go run ./cmd/fedmp-bench -sim-json BENCH_sim.json

# test-kernels runs the tensor suite once per micro-kernel tier. FEDMP_KERNEL
# forces the tier; a tier the host lacks falls back to the best available one
# (the tier-specific tests check KernelName and skip themselves), so the same
# loop passes on every machine.
test-kernels:
	FEDMP_KERNEL=generic go test ./internal/tensor
	FEDMP_KERNEL=sse go test ./internal/tensor
	FEDMP_KERNEL=avx2 go test ./internal/tensor

# perfbench-test vets and tests the end-to-end benchmark's own arithmetic
# (percentiles, self time, round boundaries). perfbench is a nested module,
# so the root `go test ./...` never reaches it.
perfbench-test:
	cd perfbench && go vet . && go test .

check: vet lint build test test-kernels race perfbench-test

# ci is the offline continuous-integration entry point: the full check
# pipeline, the stale-hatch audit, a race-checked transport smoke
# (two-worker loopback round over the binary wire codec, sim/wire parity,
# and a mid-run PS kill/restart that must recover from its checkpoint),
# then a bench smoke run (one static table plus one quick sim-backed
# figure) proving the experiment CLI still runs end to end.
ci: check lint-bench lint-hatches
	go test -race -run 'TestLoopbackSmoke|TestSimWireBytesParity|TestPSKillRestartRecovery' ./internal/transport
	go run ./cmd/fedmp-bench -quick -exp table2,fig5
