.PHONY: build test race bench benchcheck benchmark-check examples fuzz lint

build:
	go build ./...

# lint is the repo's zero-findings gate: gofmt, standard vet, and the five
# repo-specific gaslint analyzers (unsafecast, panicfree, ctxflow,
# errclose, maprange — see docs/static_analysis.md). gaslint runs twice on
# purpose: once under `go vet -vettool=` (the same driver CI and editors
# use) and once standalone, so a vettool-protocol regression cannot
# silently skip the analyzers.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi
	go vet ./...
	go build -o bin/gaslint ./cmd/gaslint
	go vet -vettool=bin/gaslint ./...
	go run ./cmd/gaslint ./...

# examples go-runs every examples/ program (all are self-contained on tiny
# synthetic inputs) so façade drift breaks CI instead of silently rotting
# the documentation.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; go run ./$$d > /dev/null; done

test:
	go test ./...

race:
	go test -race ./...

# benchmark-check builds, vets and tests the repo benchmark (benchmark/,
# its own module, so `./...` from the root never reaches it). It imports
# internal packages directly: a removed or renamed symbol it uses fails
# here rather than at the next benchmark run.
benchmark-check:
	cd benchmark && go build -o /dev/null ./... && go vet ./... && go test ./...

# fuzz replays the checked-in seed corpora (always, via go test) and then
# fuzzes each target briefly — enough for CI to catch regressions in the
# untrusted-input parsers (files, frames, HTTP bodies) and the dispatched
# popcount kernels without burning minutes.
fuzz:
	go test -run=^$$ -fuzz=FuzzReadBinary -fuzztime=10s ./internal/samplefile
	go test -run=^$$ -fuzz=FuzzFromEntries -fuzztime=10s ./internal/bitmat
	go test -run=^$$ -fuzz=FuzzPopcountAndSlice -fuzztime=10s ./internal/bitutil
	go test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=10s ./internal/bsp/tcptransport
	go test -run=^$$ -fuzz=FuzzReadIndex -fuzztime=10s ./internal/index/indexfile
	go test -run=^$$ -fuzz=FuzzQueryBody -fuzztime=10s ./cmd/similarityd
	go test -run=^$$ -fuzz=FuzzAppendBody -fuzztime=10s ./cmd/similarityd

# bench writes kernel-level benchmark results (density sweep × storage
# policy × workers, asm-vs-portable dispatch, arena allocations,
# autotuned-vs-manual) to BENCH_kernels.json; CI uploads the file as an
# artifact. Drop -quick for the full sweep on a quiet machine.
bench:
	go run ./cmd/benchkernels -quick -out BENCH_kernels.json

# benchcheck regenerates BENCH_kernels.json and compares its dimensionless
# ratios (kernel speedups, dispatch speedup, arena reduction, autotune
# ratio) against the committed baseline, failing on a >15% regression.
# Refresh the baseline deliberately with:
#   go run ./cmd/benchkernels -quick -out BENCH_baseline.json
benchcheck: bench
	go run ./cmd/benchcheck -baseline BENCH_baseline.json -current BENCH_kernels.json
