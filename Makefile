GO ?= go

# Minimum statement coverage for the solver-critical packages.
COVER_PKGS = ./internal/pathmodel ./internal/core ./internal/obs ./internal/link ./internal/channel ./internal/cluster ./internal/spec
COVER_MIN  = 85

.PHONY: all build test race vet fmt-check lint lint-selftest sarif bench bench-check cover fleet-smoke cluster-smoke clean

all: build vet test

build:
	$(GO) build ./...
	$(GO) -C tools/lint build ./...

test:
	$(GO) test -shuffle=on ./...
	$(GO) -C tools/lint test -shuffle=on ./...

# -short skips the slow large-network integration tests; the race detector
# already multiplies their runtime several-fold.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...
	$(GO) -C tools/lint vet ./...

# Fails when gofmt would reformat any Go file in the tree (both modules,
# bench/ and the analyzer fixtures included) and lists those files.
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

# Mirrors the CI lint job: gofmt, vet, the repo's own analyzer suite (layercheck,
# probfloat, mustcheck, exhaustenum, detrange, locksafe, goleak — see
# DESIGN.md §11 and §16) over both modules plus the seeded-violation
# selftest, and staticcheck when it is installed (CI pins and installs
# it). whart-lint also fails on stale //whartlint:ignore directives, so
# suppressions cannot outlive their findings.
lint: fmt-check vet lint-selftest
	$(GO) -C tools/lint run ./cmd/whart-lint -dir $(CURDIR) ./...
	$(GO) -C tools/lint run ./cmd/whart-lint -dir $(CURDIR)/tools/lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Canary for the lint wiring: whart-lint must FAIL (exit 1 with a
# detrange finding) on the deliberately broken fixture module. If this
# target passes, the map-order float-accumulation bug class (PR 6) is
# still being caught end to end.
lint-selftest:
	@out=$$($(GO) -C tools/lint run ./cmd/whart-lint -dir $(CURDIR)/tools/lint/selftest/seeded ./... 2>&1); status=$$?; \
	if [ $$status -ne 1 ]; then \
		echo "lint selftest: expected exit 1 on seeded fixture, got $$status"; echo "$$out"; exit 1; \
	fi; \
	echo "$$out" | grep -q "(detrange)" || { echo "lint selftest: no detrange finding:"; echo "$$out"; exit 1; }; \
	echo "lint selftest: seeded detrange violation caught"

# SARIF 2.1.0 reports for GitHub code scanning (CI uploads these).
sarif:
	$(GO) -C tools/lint run ./cmd/whart-lint -dir $(CURDIR) -format=sarif -o $(CURDIR)/whart-lint.sarif ./... || true
	$(GO) -C tools/lint run ./cmd/whart-lint -dir $(CURDIR)/tools/lint -format=sarif -o $(CURDIR)/whart-lint-tools.sarif ./... || true

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark (bench/, its own module with a replace of this
# one) sits outside the root `go test ./...` and `make lint`, yet compiles
# against the engine, core and pathmodel APIs: vet it, test it and run the
# analyzer suite over it, as bench/README.md does.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) -C tools/lint run ./cmd/whart-lint -dir $(CURDIR)/bench ./...

# CI fleet smoke: sweep a 50-network population twice with a fixed seed
# and require byte-identical reports — the end-to-end determinism check
# behind the fleet subsystem (DESIGN.md §12) — then repeat with k-state
# fading links drawn into the population (DESIGN.md §14).
fleet-smoke:
	@a=$$(mktemp) b=$$(mktemp); \
	trap 'rm -f "$$a" "$$b"' EXIT; \
	$(GO) run ./cmd/whart-fleet -seed 1 -n 50 -pernet -o "$$a" || exit 1; \
	$(GO) run ./cmd/whart-fleet -seed 1 -n 50 -pernet -o "$$b" || exit 1; \
	cmp "$$a" "$$b" || { echo "fleet sweep not byte-deterministic"; exit 1; }; \
	echo "fleet smoke: 50-network sweep deterministic"; \
	$(GO) run ./cmd/whart-fleet -seed 1 -n 50 -pernet -fading 0.3 -fadingstates 3 -o "$$a" || exit 1; \
	$(GO) run ./cmd/whart-fleet -seed 1 -n 50 -pernet -fading 0.3 -fadingstates 3 -o "$$b" || exit 1; \
	cmp "$$a" "$$b" || { echo "fading fleet sweep not byte-deterministic"; exit 1; }; \
	echo "fleet smoke: 50-network fading sweep deterministic"

# CI cluster smoke: boot a 3-replica consistent-hash cluster, drive the
# same scenarios through different replicas (cross-replica cache hits via
# peer forwarding), SIGTERM one replica and require the survivors to keep
# answering in degraded-local mode, then restart it from its snapshot and
# require zero fresh solves (DESIGN.md §15).
cluster-smoke:
	./scripts/cluster_smoke.sh

# The profile lives in a temp file so `make cover` never dirties the tree.
cover:
	@profile=$$(mktemp); \
	trap 'rm -f "$$profile"' EXIT; \
	$(GO) test -coverprofile="$$profile" $(COVER_PKGS) || exit 1; \
	$(GO) tool cover -func="$$profile" | tail -1; \
	total=$$($(GO) tool cover -func="$$profile" | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	ok=$$(awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN {print (t+0 >= m+0) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "coverage $$total% below minimum $(COVER_MIN)%"; exit 1; \
	fi

clean:
	$(GO) clean ./...
