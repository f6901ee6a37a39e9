.PHONY: build test race benchmark-check examples fuzz lint lines

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

# lines prints the non-test and test Go line counts of each package that
# `go list ./...` finds (all of a package directory's .go files, whatever
# their build tags; testdata and benchmark/, its own module, are not
# packages of ./...) and their totals.
lines:
	@go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do \
		src=0; tst=0; \
		for f in "$$dir"/*.go; do \
			n=$$(wc -l < "$$f"); \
			case "$$f" in *_test.go) tst=$$((tst + n));; *) src=$$((src + n));; esac; \
		done; \
		printf '%-48s %7d %7d\n' "$$pkg" "$$src" "$$tst"; \
	done | awk 'BEGIN { printf "%-48s %7s %7s\n", "package", "non-test", "test" } \
		{ print; s += $$2; t += $$3 } END { printf "%-48s %7d %7d\n", "total", s, t }'

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
# untrusted-input parsers (files, frames, wire payloads, HTTP bodies) and
# the dispatched popcount kernels without burning minutes.
fuzz:
	go test -run=^$$ -fuzz=FuzzReadBinary -fuzztime=10s ./internal/samplefile
	go test -run=^$$ -fuzz=FuzzSampleRange -fuzztime=10s ./internal/samplefile
	go test -run=^$$ -fuzz=FuzzFromEntries -fuzztime=10s ./internal/bitmat
	go test -run=^$$ -fuzz=FuzzHybridThresholdEquivalence -fuzztime=10s ./internal/bitmat
	go test -run=^$$ -fuzz=FuzzTriangleGram -fuzztime=10s ./internal/bitmat
	go test -run=^$$ -fuzz=FuzzPopcountAndSlice -fuzztime=10s ./internal/bitutil
	go test -run=^$$ -fuzz=FuzzPopcountAndBlock -fuzztime=10s ./internal/bitutil
	go test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=10s ./internal/bsp/tcptransport
	go test -run=^$$ -fuzz=FuzzWireDecode -fuzztime=10s ./internal/dist
	go test -run=^$$ -fuzz=FuzzFilterRank -fuzztime=10s ./internal/dist
	go test -run=^$$ -fuzz=FuzzSetRows -fuzztime=10s ./internal/index
	go test -run=^$$ -fuzz=FuzzReadIndex -fuzztime=10s ./internal/index/indexfile
	go test -run=^$$ -fuzz=FuzzQueryBody -fuzztime=10s ./cmd/similarityd
	go test -run=^$$ -fuzz=FuzzAppendBody -fuzztime=10s ./cmd/similarityd
