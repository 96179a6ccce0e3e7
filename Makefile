# Developer entry points. CI (.github/workflows/ci.yml) runs the same commands.

.PHONY: check build fmt vet lint test allocs examples examples-update digests fuzz race reach reach-programs

check: build fmt vet lint test allocs examples

build:
	go build ./...

# Fails listing the files gofmt would rewrite.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	go vet ./...

# meshvet (cmd/meshvet, internal/lint) machine-checks the simulator's
# invariants: no wall clock or global randomness in sim code, no
# order-dependent range-over-map, index-owned writes in parallel
# sweeps, and the rest. `go run ./cmd/meshvet -doc` documents each
# analyzer; -json/-github emit reports, -fix applies the headerreg
# literal -> constant rewrites.
lint:
	go run ./cmd/meshvet ./...

# Includes TestGoldens: every experiment in the registry (registry.go)
# replayed at its golden settings against testdata/golden/, with the
# sweep pool off and on. After an intended table change:
#   go test -run TestGoldens -update .
test:
	go test -race -timeout 45m ./...

# The allocation budgets (Test*Allocs) and the layout pins (Test*Size)
# without -race: a -race build allocates differently from the program,
# so the budgets skip themselves under it, and test and race above never
# enforce them.
allocs:
	go test -count=1 -run 'Allocs|Size' ./internal/...

# Runs every example main, and cmd/tracedump at its defaults, and
# compares each one's stdout byte-for-byte with
# testdata/examples/<name>.txt; fails on the first non-zero exit or
# difference. Some code paths have no other runner: SocialNetworkSpec,
# the e-commerce preset under faults, and the autoscaler. After an
# intended output change, `make examples-update` rewrites the files;
# review their diff.
EXAMPLE_MAINS = examples/*/ cmd/tracedump/

examples:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	for d in $(EXAMPLE_MAINS); do \
		echo "go run ./$$d"; \
		go run "./$$d" >"$$out" || exit 1; \
		diff -u "testdata/examples/$$(basename $$d).txt" "$$out" || exit 1; \
	done

examples-update:
	@mkdir -p testdata/examples && \
	for d in $(EXAMPLE_MAINS); do \
		echo "go run ./$$d > testdata/examples/$$(basename $$d).txt"; \
		go run "./$$d" >"testdata/examples/$$(basename $$d).txt" || exit 1; \
	done

# Prints, for seeds 1 and 7, each benchmark workload's name, sim_digest
# and events_per_op from one rep of bench/run.sh (~8 s a seed): the lines
# a change that must not move the simulation compares with its parent's.
# Not part of check.
digests:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	for s in 1 7; do \
		bash bench/run.sh --workload all --seed $$s --reps 1 >"$$out" || exit 1; \
		grep -E '^(workload|sim_digest|events_per_op) ' "$$out"; \
	done

# Runs every Fuzz* target in the module for 10 s each (go test -fuzz
# takes one target in one package at a time), failing on the first
# crasher; go test writes it under that package's testdata/fuzz.
fuzz:
	@for file in $$(grep -rl --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz' .); do \
		for name in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/p' "$$file"); do \
			echo "go test -run '^$$' -fuzz '^$$name\$$' -fuzztime 10s $$(dirname $$file)"; \
			go test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s "$$(dirname $$file)" || exit 1; \
		done; \
	done

# Short-mode suite under the race detector (TestGoldens skips itself):
# the quick leg that complements the indexowned analyzer (static
# ownership proofs) with runtime interleaving checks. Of the root
# package's TestHybridCrossValidation it runs the E20 fan-in case, the
# one that short mode keeps. The explicit leg pins the fluid fast path:
# the full flow-engine suite (not just short mode) under -race.
race:
	go test -race -short -timeout 10m ./...
	go test -race -timeout 10m -run 'Flow|Fluid|Hybrid' ./internal/simnet

# The reachability audit (ROADMAP item 5), not part of check: every
# non-test function no test in the module executes, from one whole-suite
# coverage run (~8 min). cmd/, examples/ and bench/ are left out — mains
# run by hand and the benchmark's harness — so grep them for a candidate
# before deleting it. What the list still holds is kept on purpose:
# debug String() methods, interface methods (RED/CoDel Len/Backlog,
# meshvet's fact markers), Scenario.Now, Conn.Established/InFlight.
reach:
	@prof=$$(mktemp) && trap 'rm -f "$$prof"' EXIT && \
	go test -timeout 45m -coverpkg=./... -coverprofile="$$prof" ./... >/dev/null && \
	go tool cover -func="$$prof" | \
	awk '$$NF == "0.0%" && $$1 !~ /^meshlayer\/(cmd|examples|bench)\// {print $$1, $$2}'

# The programs' lens of the same audit (ROADMAP item 7), not part of
# check: every non-test function that neither an experiment nor a
# program run executes. It merges the coverage of TestGoldens with that
# of coverage-instrumented builds (go build -cover) of every example
# main and cmd/tracedump at their defaults, cmd/meshsim at its defaults
# and with -opts all -telemetry -timeline, bench -workload all -quick
# with and without -trace 1, and cmd/meshbench at smoke windows: fig4
# at one level with -chart and with -csv (the chart and CSV renderers)
# (~9 min on 2 cores). internal/lint is left out, since meshvet runs at
# lint time, never inside a program.
# The count goes to stderr after the list.
REACH_MAINS = examples/*/ cmd/tracedump/ cmd/meshsim/ cmd/meshbench/ bench/
MESHBENCH_SMOKE = -seed 1 -warmup 1s -measure 2s

reach-programs:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && mkdir "$$dir/cov" "$$dir/bin" && \
	go test -timeout 45m -run 'TestGoldens$$' -cover -coverpkg=./... . -args -test.gocoverdir="$$dir/cov" >/dev/null && \
	for d in $(REACH_MAINS); do \
		go build -cover -coverpkg=./... -o "$$dir/bin/$$(basename $$d)" "./$$d" || exit 1; \
	done && \
	for d in examples/*/ cmd/tracedump/; do \
		GOCOVERDIR="$$dir/cov" "$$dir/bin/$$(basename $$d)" >/dev/null || exit 1; \
	done && \
	GOCOVERDIR="$$dir/cov" "$$dir/bin/meshsim" >/dev/null && \
	GOCOVERDIR="$$dir/cov" "$$dir/bin/meshsim" -opts all -telemetry -timeline >/dev/null && \
	GOCOVERDIR="$$dir/cov" "$$dir/bin/bench" -workload all -quick >/dev/null && \
	GOCOVERDIR="$$dir/cov" "$$dir/bin/bench" -workload all -quick -trace 1 >/dev/null && \
	GOCOVERDIR="$$dir/cov" "$$dir/bin/meshbench" -exp fig4 -levels 20 $(MESHBENCH_SMOKE) -chart >/dev/null && \
	GOCOVERDIR="$$dir/cov" "$$dir/bin/meshbench" -exp fig4 -levels 20 $(MESHBENCH_SMOKE) -csv >/dev/null && \
	go tool covdata textfmt -i="$$dir/cov" -o "$$dir/cover.out" && \
	go tool cover -func="$$dir/cover.out" | \
	awk '$$NF == "0.0%" && $$1 !~ /^meshlayer\/(cmd|examples|bench|internal\/lint)\// {print $$1, $$2; n++} \
		END {print n + 0, "functions at 0% under the experiments and programs" > "/dev/stderr"}'
