# Development entry points. CI runs the same commands (.github/workflows).

GO ?= go

.PHONY: build test race lint vet staticcheck ndplint bench benchdiff

build:
	$(GO) build ./...

# perfbench is a separate module, so ./... does not reach it.
test:
	$(GO) test ./...
	cd perfbench && $(GO) vet . && $(GO) test .

race:
	$(GO) test -race ./...

# lint mirrors the CI lint + ndplint jobs. staticcheck is skipped with a
# notice when not installed (hermetic environments cannot fetch it).
lint: vet staticcheck ndplint
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt needed on the files above"; exit 1; }

vet:
	$(GO) vet ./...

# STATICCHECK_VERSION is the single pin CI and local runs share: bump it
# here and in no other place (ci.yml reads the Makefile).
STATICCHECK_VERSION = 2025.1.1

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

ndplint:
	$(GO) run ./cmd/ndplint ./...

bench:
	$(GO) test -bench 'BenchmarkEngine' -benchtime 100x -benchmem -run xxx ./internal/sim/

# benchdiff reruns the small-scale campaign and diffs it against the
# committed baseline; exits non-zero on a >10% events/sec regression.
benchdiff:
	$(GO) run ./cmd/ndpbench -scale small -j 1 -benchjson /tmp/ndpbench-new.json >/dev/null
	$(GO) run ./cmd/ndpbench -compare results/bench.json /tmp/ndpbench-new.json
