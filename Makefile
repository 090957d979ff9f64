# Verification tiers.
#
#   make test          — tier 1: build everything, run the full unit suite
#                        (including the allocation pins on the ingest,
#                        signature-retrieval, store-restore and MIC-scoring
#                        hot paths)
#   make vet           — go vet, and fail on any file gofmt would rewrite
#   make race          — tier 2: vet + the full suite under the race detector
#   make smoke         — boot invarnetd on an ephemeral port, run the load
#                        generator against the live socket, assert /healthz
#                        and /v1/stats sanity, drain and persist cleanly
#   make bench-smoke   — vet and short-test the separate bench/ module (the
#                        end-to-end benchmark harness), so an API removal
#                        that breaks it fails here, not in the acceptance
#                        driver: the root build never compiles it
#   make check         — all tiers: test, race, smoke, bench-smoke
#   make loc           — non-test Go lines per package (internal/*,
#                        server/client, cmd/*, the root package) and a TOTAL
#                        row: the one number every simplicity PR quotes in
#                        CHANGES.md, so before/after figures are comparable
#
# The race tier exists because the core is concurrent by design (striped
# profile registry, parallel association workers, concurrent SaveTo): a data race there is a correctness bug, not
# a performance detail.
#
# Performance has one instrument: bench/ (BENCHMARK.json), run by the
# acceptance driver on alternating parent/change pairs. The root Benchmark*
# functions are developer tools (`go test -bench <pattern> -benchmem .`), not
# a gate; what they used to gate that is near-deterministic — allocations per
# operation — is pinned by tier-1 tests instead.

GO ?= go

.PHONY: build test vet race check bench-smoke smoke fuzz loc

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

race: vet
	$(GO) test -race ./...

check: test race smoke bench-smoke

smoke: build
	$(GO) run ./cmd/invarnetd -smoke -smoke-seconds 3

bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Per row: find <dir> -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l
loc:
	@total=0; for d in internal/*/ internal/server/client/ cmd/*/ ./; do \
		p=$${d%/}; p=$${p#internal/}; [ "$$p" = . ] && p=root; \
		n=$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); \
		total=$$((total+n)); printf '%-16s %6d\n' $$p $$n; \
	done; printf '%-16s %6d\n' TOTAL $$total

# Short coverage-guided runs of nine targets: the two ingest decoders' (the
# binary wire frame, and the one-pass JSON decoder held differentially to
# encoding/json plus validation and fromSamples: the same bodies accepted,
# a repeated key aside, and the same batch to the bit; its minimisation is
# capped at 2 s so a large mutated body does not eat the run), the store
# reader's (profile and fleet-state files, the scanner, the direct invariants
# and signature loops and the packed text merge checked against encoding/xml
# and a DB.Merge per entry), the lifecycle restore's (an
# arbitrary edge list over a fixed set: refused, or restored to a state whose
# re-saved section restores to itself),
# the fleet gossip decoders' (/sync and /push bodies), the two signature
# equivalence targets — the packed scan (popcount scoring, MinScore pruning,
# zero-query closed form) against the boolean linear reference, and Rank
# against BestProblem(Match) — which are the only coverage-guided guard that
# the one retrieval path is exact, the exact-MIC kernel against the
# kernel it replaced (term table, trimmed DP, one-pass clumps: same Result to
# the bit, on tie densities no hand-written shape covers), and pair-major
# training against dense fill + the old selection loop (early exit, memo
# reads, masks and ragged runs: same invariant set to the bit, cold and
# warm). The seed corpora alone (run by `make test`) only replay known shapes.
fuzz: build
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzIngestJSON -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/xmlstore/ -run '^$$' -fuzz FuzzLoad -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzLifecycleRestore -fuzztime 10s
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz FuzzGossipBody -fuzztime 10s
	$(GO) test ./internal/signature/ -run '^$$' -fuzz FuzzMatchEquivalence -fuzztime 10s
	$(GO) test ./internal/signature/ -run '^$$' -fuzz FuzzRankEquivalence -fuzztime 10s
	$(GO) test ./internal/mic/ -run '^$$' -fuzz FuzzPairKernelEquivalence -fuzztime 10s
	$(GO) test ./internal/invariant/ -run '^$$' -fuzz FuzzTrainEquivalence -fuzztime 10s
