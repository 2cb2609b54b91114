# Development entry points. CI runs the same commands (.github/workflows).

GO ?= go

.PHONY: build test race lint vet staticcheck ndplint bench

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
	$(GO) test -run xxx -bench BenchmarkRMAT -benchtime 1x ./internal/workloads/
