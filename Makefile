# Convenience targets; the authoritative commands live in ROADMAP.md
# (tier-1) and scripts/check.sh (quick race-mode gate).

.PHONY: build test check lint loadcheck

build:
	go build ./...

test: build
	go test ./...

# Repo-specific lint, all eight hopplint analyzers (nodeterm, maporder,
# ctxfirst, errdrop, hotalloc, lockheld, unreachable, stalewaiver); also
# runs inside `make check`.
lint:
	go run ./cmd/hopplint ./...

check:
	sh scripts/check.sh

# Race-mode pass over the resource-limit surface: sustained-load leak
# regression, queue backpressure (429), registry eviction (404),
# per-run timeouts, and sweep fan-out fairness (a giant sweep holding
# only its paced window while other clients' single runs progress).
loadcheck:
	go test -race -count=1 -v -run 'SustainedLoad|Overload|Backpressure|Evict|Timeout|429|404|Fairness|Sweep' ./internal/service/
