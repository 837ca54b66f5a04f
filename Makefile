# Targets mirror the CI jobs in .github/workflows/ci.yml so a green
# `make check` locally predicts a green pipeline.

GO ?= go
BIN := bin

.PHONY: all build lint vet fmt test race bench perfbench-test check clean

all: build

build:
	$(GO) build ./...
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/ ./cmd/...

# Stock vet plus brb-vet, the repo's own invariant analyzers
# (DESIGN.md §12). Both are blocking in CI's lint job.
lint: vet
	$(GO) build -o $(BIN)/brb-vet ./cmd/brb-vet
	$(GO) vet -vettool=$(BIN)/brb-vet ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 100x -benchmem ./internal/wire/ ./internal/netstore/

# perfbench is its own module (it replaces the root module with ../),
# so the root ./... patterns never reach it: vet and test it in place.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: fmt lint build test race perfbench-test

clean:
	rm -rf $(BIN)
