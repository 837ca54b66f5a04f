# Targets mirror the CI jobs in .github/workflows/ci.yml so a green
# `make check` locally predicts a green pipeline.

GO ?= go
BIN := bin

.PHONY: all build lint vet fmt test race bench perfbench-test load-smoke fault-smoke check clean

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

# CI's derived-shard brb-load smoke: without -shards, the three default
# -servers at -replication 3 run as one shard of three spawned replicas.
load-smoke:
	$(GO) run ./cmd/brb-load -spawn -replication 3 \
		-keys 300 -tasks 1000 -clients 2 -fanout 8.6 -burst-prob 0.02 \
		| tee /dev/stderr | grep -E 'task latency: n=1000 '

# CI's replica-outage smoke: -kill-replica stops a spawned replica
# mid-run and restarts it over its surviving store, -crash-replica
# hard-kills one and restarts it from its WAL. Both run the open-loop,
# delete-heavy spec, whose Poisson schedule lasts about 2 s on any
# machine, so the 0.8 s outage falls within the load; each run must say
# so and end with its replica check passing.
fault-smoke:
	out=$$($(GO) run ./cmd/brb-load -spawn -shards 2 -replication 2 \
		-spec cmd/brb-load/testdata/delete-mix.yaml \
		-kill-replica 1 -kill-after 500ms -restart-after 300ms -probe-interval 50ms 2>&1); \
	echo "$$out"; \
	echo "$$out" | grep -q 'outage .* fell within the load' && echo "$$out" | grep -q 'convergence: OK'
	out=$$($(GO) run ./cmd/brb-load -spawn -shards 1 -replication 2 \
		-spec cmd/brb-load/testdata/delete-mix.yaml \
		-crash-replica 1 -crash-after 500ms -recover-after 300ms -probe-interval 50ms 2>&1); \
	echo "$$out"; \
	echo "$$out" | grep -q 'outage .* fell within the load' && echo "$$out" | grep -q 'crash-recovery: OK'

check: fmt lint build test race perfbench-test

clean:
	rm -rf $(BIN)
