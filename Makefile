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
#                        and /v1/stats sanity, assert a JSON batch and a
#                        frame for an untrained context answer 409 and open
#                        no stream, drain and persist cleanly
#   make bench-smoke   — vet and short-test the separate bench/ module (the
#                        end-to-end benchmark harness), so an API removal
#                        that breaks it fails here, not in the acceptance
#                        driver: the root build never compiles it
#   make bench-once    — run every Go benchmark of the module once
#                        (-benchtime 1x), so a benchmark that stops
#                        compiling or starts failing is caught; a
#                        compile-and-run check, not a measurement (10-12 s
#                        on 2 cores; the 100 000-entry linear signature
#                        scan is the slowest part)
#   make bench-record  — run the kernel benchmarks beside the code
#                        (core's TrainContext and VerdictUncached, mic's
#                        NewBatch and PairKernel, the JSON codec's two
#                        ends: server's IngestJSONDecode/decoder and
#                        client's AppendRequest/appender, one 24-sample
#                        body each, and xmlstore's LoadProfile, one
#                        persist-shaped profile file) ten times,
#                        round-robin over the kernels, and
#                        write BENCH_$(RECORD_ID).json at the root: per
#                        benchmark the median and quartiles of ns/op (and
#                        of pairs/op where it is reported) under
#                        "kernels", with the commit, GOMAXPROCS (the
#                        environment's, else nproc; the benchmarks run
#                        under it), nproc, the CPU model from
#                        /proc/cpuinfo and a machine note (uname and the
#                        load average at the start); one file per change,
#                        so the files are the trajectory: a change that
#                        records sets RECORD_ID to its own number (~2 min
#                        on 2 cores; two runs on a shared host can differ
#                        by more than their IQR: compare records made
#                        together)
#   make check         — all tiers: test, race, smoke, bench-smoke,
#                        bench-once
#   make loc           — non-test Go lines per package (internal/*,
#                        server/client, cmd/*, examples/*, the root
#                        package, which holds tests only) and a TOTAL
#                        row: the one number every simplicity PR quotes in
#                        CHANGES.md, so before/after figures are comparable;
#                        beside each internal package, its exported surface:
#                        the lines of `go doc -short` (one per package-level
#                        const, var, func or type declaration — a grouped
#                        const block is one — with methods not counted) and
#                        their TOTAL
#
# The race tier exists because the core is concurrent by design (one
# profile registry map, per-profile locks, parallel pair workers, concurrent
# SaveTo): a data race there is a correctness bug, not a performance detail.
#
# Performance has one instrument: bench/ (BENCHMARK.json), run on
# alternating parent/change pairs. The root package has no benchmarks: the
# few Benchmark* functions left sit beside the code they time (signature
# retrieval, the MIC and ARX pair kernels, the JSON ingest decoder, the
# simulator tick) and are developer tools (`go test -run '^$' -bench
# <pattern> -benchmem ./internal/<pkg>`), not a gate; what is
# near-deterministic about them — allocations per operation — is pinned by
# tier-1 tests instead. The paper's tables and figures are regenerated by
# cmd/experiments, not by benchmarks.

GO ?= go

.PHONY: build test vet race check bench-smoke bench-once bench-record smoke fuzz loc

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

check: test race smoke bench-smoke bench-once

smoke: build
	$(GO) run ./cmd/invarnetd -smoke -smoke-seconds 3

bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

bench-once: build
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

RECORD_ID ?= 57

# The kernels bench-record runs: package directory, the name's prefix in the
# record, -bench pattern.
RECORD_KERNELS = 'internal/core core TrainContext|VerdictUncached' \
	'internal/mic mic NewBatch|PairKernel' \
	'internal/server server IngestJSONDecode/decoder' \
	'internal/server/client client AppendRequest/appender' \
	'internal/xmlstore xmlstore LoadProfile'

# Each package's test binary is built once; the ten runs then go round-robin
# over the kernels, each one -test.count 1 from its package's directory, so a
# load spike on a shared host lands on every row alike instead of on one
# package's ten. The quartiles are the linear-interpolation ones (R's type
# 7) over the 10 runs of each benchmark. The benchmarks run under an
# explicit GOMAXPROCS, so its -N name suffix (absent when it is 1) is known
# and stripped exactly. Strings reach awk through its environment, which
# applies no escapes, and are JSON-escaped on the way out.
bench-record: build
	@out=BENCH_$(RECORD_ID).json; raw=$$(mktemp); bins=$$(mktemp -d); \
	procs=$${GOMAXPROCS:-$$(nproc)}; \
	export NOTE="$$(uname -srm), load average $$(cut -d' ' -f1-3 /proc/loadavg) at the start"; \
	export COMMIT=$$(git rev-parse HEAD 2>/dev/null || echo unknown); \
	git diff --quiet HEAD -- . ':!BENCH_*.json' 2>/dev/null || COMMIT="$$COMMIT-dirty"; \
	export CPU="$$(grep -m1 'model name' /proc/cpuinfo | sed 's/.*: //')"; \
	export GOVER="$$($(GO) env GOVERSION)"; \
	fail() { rm -rf $$raw $$bins $$out.tmp; exit 1; }; \
	for k in $(RECORD_KERNELS); do set -- $$k; $(GO) test -c -o $$bins/$$2.test ./$$1 || fail; done; \
	for run in 1 2 3 4 5 6 7 8 9 10; do for k in $(RECORD_KERNELS); do set -- $$k; \
		res=$$(cd $$1 && GOMAXPROCS=$$procs $$bins/$$2.test -test.run '^$$' -test.bench "$$3" -test.count 1) || fail; \
		printf '%s\n' "$$res" | sed "s/^Benchmark/$$2.Benchmark/" >> $$raw; \
	done; done; \
	awk -v procs=$$procs -v nproc="$$(nproc)" ' \
	function js(s) { gsub(/\\/, "&&", s); gsub(/"/, "\\\"", s); gsub(/[[:cntrl:]]/, " ", s); return s } \
	function q(key, p,   n, i, j, v, s, pos, lo) { \
		n = cnt[key]; for (i = 1; i <= n; i++) s[i] = vals[key, i]; \
		for (i = 2; i <= n; i++) { v = s[i]; for (j = i - 1; j >= 1 && s[j] > v; j--) s[j + 1] = s[j]; s[j + 1] = v } \
		pos = 1 + (n - 1) * p; lo = int(pos); \
		return lo >= n ? s[n] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo]) } \
	function stat(key) { return sprintf("{\"q1\": %.1f, \"median\": %.1f, \"q3\": %.1f}", q(key, 0.25), q(key, 0.5), q(key, 0.75)) } \
	/^(core|mic|server|client|xmlstore)\.Benchmark/ { name = $$1; if (procs > 1) sub("-" procs "$$", "", name); \
		if (!(name in seen)) { seen[name] = 1; order[++names] = name } \
		for (i = 3; i < NF; i += 2) if ($$(i + 1) == "ns/op" || $$(i + 1) == "pairs/op") { key = name SUBSEP $$(i + 1); vals[key, ++cnt[key]] = $$i } } \
	END { \
		if (names == 0) exit 1; \
		printf "{\n  \"commit\": \"%s\",\n  \"go\": \"%s\",\n  \"gomaxprocs\": %d,\n  \"nproc\": %d,\n  \"cpu\": \"%s\",\n  \"note\": \"%s\",\n  \"count\": 10,\n  \"kernels\": {\n", \
			js(ENVIRON["COMMIT"]), js(ENVIRON["GOVER"]), procs, nproc, js(ENVIRON["CPU"]), js(ENVIRON["NOTE"]); \
		for (k = 1; k <= names; k++) { name = order[k]; \
			printf "    \"%s\": {\"runs\": %d, \"ns_per_op\": %s", js(name), cnt[name, "ns/op"], stat(name SUBSEP "ns/op"); \
			if (cnt[name, "pairs/op"]) printf ", \"pairs_per_op\": %s", stat(name SUBSEP "pairs/op"); \
			printf "}%s\n", k < names ? "," : "" } \
		printf "  }\n}\n" }' $$raw > $$out.tmp && mv $$out.tmp $$out && rm -rf $$raw $$bins && echo "wrote $$out" || fail

# Per row: find <dir> -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l
# (0 for a directory with test files only) and, for internal/*:
# go doc -short ./internal/<pkg> | wc -l
loc:
	@total=0; exported=0; printf '%-20s %6s %8s\n' package lines exported; \
	for d in internal/*/ internal/server/client/ cmd/*/ examples/*/ ./; do \
		p=$${d%/}; p=$${p#internal/}; [ "$$p" = . ] && p=root; \
		n=$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l); \
		total=$$((total+n)); e=-; \
		case $$d in internal/*) e=$$($(GO) doc -short ./$${d%/} | wc -l); exported=$$((exported+e));; esac; \
		printf '%-20s %6d %8s\n' $$p $$n $$e; \
	done; printf '%-20s %6d %8d\n' TOTAL $$total $$exported

# Short coverage-guided runs of eleven targets: the two request decoders' (the
# binary wire frame, and the one-pass JSON decoder of the ingest, diagnose
# and label bodies, each body read as all three, held differentially to
# encoding/json plus the required fields, validation and fromSamples: the
# same bodies accepted, a repeated key aside, and the same fields and batch
# to the bit; its minimisation is capped at 2 s so a large mutated body
# does not eat the run), the JSON codec's two number paths (the decoder's
# one-walk number scan on arbitrary bytes against the grammar walk +
# strconv.ParseFloat it replaced: the same end, refusal and bits; and the
# client's request appender against json.Marshal: the same bytes, or the
# same error, for floats drawn from raw bits and names needing escapes), the store
# reader's (profile files: the scanner, the direct path that reads pairs and
# signatures spelled as save writes them straight from the bytes, the token
# loop it hands every other spelling to, and the packed text merge, checked
# against encoding/xml and a DB.Merge per entry into the base of the root's
# context, a signature naming another context refusing the file; seeded with
# canonical files edited at each point where the direct path must hand
# over), the lifecycle restore's (an
# arbitrary edge list over a fixed set: refused — a negative shadow tally, or
# one counting more violations than evaluations, among the seeded refusals —
# or restored to a state whose re-saved section restores to itself),
# the tuple text decoder restored signatures pass through
# (signature.ParseTuple: refused, or round-tripped exactly, and DB.MergeText
# held to ParseTuple + Merge on the same bytes), the two signature
# equivalence targets — the packed scan (popcount scoring, the MinScore
# floor, zero-query closed form) of one context's database, the query's
# context drawn against it, against the boolean linear reference, and Rank
# against BestProblem(Match) — which are the only coverage-guided guard that
# the one retrieval path is exact, the exact-MIC kernel against the
# kernel it replaced (term table, trimmed DP, one-pass clumps: same Result to
# the bit, on tie densities no hand-written shape covers), and pair-major
# training against dense fill + the old selection loop (early exit, masks
# and ragged runs: same invariant set to the bit, and exactly the scores the
# run-order exit needs). The seed corpora alone (run by `make test`) only
# replay known shapes.
fuzz: build
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzIngestJSON -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzJSONNumber -fuzztime 10s
	$(GO) test ./internal/server/client/ -run '^$$' -fuzz FuzzAppendRequest -fuzztime 10s
	$(GO) test ./internal/xmlstore/ -run '^$$' -fuzz FuzzLoad -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzLifecycleRestore -fuzztime 10s
	$(GO) test ./internal/signature/ -run '^$$' -fuzz FuzzParseTuple -fuzztime 10s
	$(GO) test ./internal/signature/ -run '^$$' -fuzz FuzzMatchEquivalence -fuzztime 10s
	$(GO) test ./internal/signature/ -run '^$$' -fuzz FuzzRankEquivalence -fuzztime 10s
	$(GO) test ./internal/mic/ -run '^$$' -fuzz FuzzPairKernelEquivalence -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/invariant/ -run '^$$' -fuzz FuzzTrainEquivalence -fuzztime 10s
