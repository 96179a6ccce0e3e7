# Developer entry points. CI (.github/workflows/ci.yml) runs the same commands.

.PHONY: check build fmt vet lint test allocs examples race reach reach-goldens

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

# The allocation budgets (Test*Allocs) without -race: the race detector
# drops sync.Pool items at random, so TestChainHopAllocs skips itself
# under it, and test and race above never enforce its budget.
allocs:
	go test -count=1 -run 'Allocs' ./internal/...

# Runs every example main and fails on the first non-zero exit. Some
# code paths have no other runner: SocialNetworkSpec, the e-commerce
# preset under faults, and the autoscaler.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		go run "./$$d" >/dev/null || exit 1; \
	done

# Short-mode suite under the race detector (TestGoldens skips itself):
# the quick leg that complements the indexowned analyzer (static
# ownership proofs) with runtime interleaving checks. It already runs
# the root package's hybrid cross-validation harness in short mode. The
# explicit leg pins the fluid fast path: the full flow-engine suite (not
# just short mode) under -race.
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

# The experiments' lens of the same audit (ROADMAP item 7), not part of
# check: every non-test function no registry experiment executes, from
# coverage of TestGoldens alone (~7 min on 2 cores). internal/lint is
# left out too, since meshvet runs at lint time, never inside an
# experiment. The count goes to stderr after the list.
reach-goldens:
	@prof=$$(mktemp) && trap 'rm -f "$$prof"' EXIT && \
	go test -timeout 45m -run 'TestGoldens$$' -coverpkg=./... -coverprofile="$$prof" . >/dev/null && \
	go tool cover -func="$$prof" | \
	awk '$$NF == "0.0%" && $$1 !~ /^meshlayer\/(cmd|examples|bench|internal\/lint)\// {print $$1, $$2; n++} \
		END {print n + 0, "functions at 0% under TestGoldens" > "/dev/stderr"}'
