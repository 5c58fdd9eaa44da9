# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the two in sync.

GO ?= go

# Every fuzz target in the tree, as package:Target pairs. go test accepts
# only one -fuzz pattern per package invocation, so fuzz-smoke loops.
FUZZ_TARGETS := \
	./internal/wire:FuzzDecodeRequest \
	./internal/wire:FuzzDecodeResponse \
	./internal/wire:FuzzReadFrame \
	./internal/wire:FuzzDecodeV2Frame \
	./internal/binenc:FuzzReader \
	./internal/binenc:FuzzRoundTrip \
	./internal/meta:FuzzDecodeMetadata \
	./internal/meta:FuzzDecodeTable \
	./internal/meta:FuzzDecodeManifest \
	./internal/meta:FuzzDecodeSuperblock \
	./internal/meta:FuzzDecodeSplitPointer \
	./internal/meta:FuzzOpenVerified \
	./internal/cap:FuzzOpenView \
	./internal/analysis:FuzzParseAllowDirective \
	./internal/shard:FuzzDecodeRing

FUZZTIME ?= 10s

.PHONY: all build test vet vet-self vet-json vet-baseline vet-diff race chaos-smoke fuzz-smoke bench-smoke check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet = the stock toolchain vet plus the repo's own invariant analyzers:
# six security analyzers (key leaks, AAD binding, seeded randomness,
# error hygiene, untrusted-input verification, key egress), four
# concurrency analyzers (lock ordering, lock balance, goroutine leaks,
# atomic/plain mixed access), and three error-propagation/lifecycle
# analyzers (errdrop, errwrap, resleak). Runs in baseline-diff mode:
# only findings absent from the committed vet-baseline.json fail the
# build, so legacy debt never blocks unrelated work. Warm runs replay
# unchanged packages from .vet-cache.
vet: vet-diff
	$(GO) vet ./...

# vet-self runs all thirteen sharoes-vet analyzers over the whole module
# and fails on ANY unsuppressed finding (exit 1) or load error (exit 2),
# ignoring the baseline. Bare //sharoes-vet:allow directives (no
# justification) are findings. See docs/ANALYZERS.md for the analyzer
# tables and allow conventions.
vet-self:
	$(GO) run ./cmd/sharoes-vet ./...

# vet-baseline regenerates the committed baseline. Run it after fixing
# or deliberately accepting findings, and commit the result.
vet-baseline:
	$(GO) run ./cmd/sharoes-vet -write-baseline vet-baseline.json ./...

# vet-diff gates on NEW findings only: exit 1 iff the current tree has
# findings not present in vet-baseline.json (line drift is ignored; the
# diff matches on analyzer+file+message).
vet-diff:
	$(GO) run ./cmd/sharoes-vet -baseline vet-baseline.json ./...

# vet-json emits the machine-readable report CI archives as an artifact:
# {"findings": [...], "allows": {analyzer: count}}.
vet-json:
	$(GO) run ./cmd/sharoes-vet -json ./... > vet-findings.json

# race runs the packages with dedicated concurrency stress tests under
# the race detector (internal/analysis for its parallel package loader,
# internal/layout for the crypto worker pool that seals file blocks,
# internal/shard for concurrent quorum ops during live rebalancing and
# the self-heal stress test, internal/resilience and internal/netsim for
# the retry and sever paths). TestAllocBudget is skipped: sync.Pool drops
# items under the race detector, so allocation counts mean nothing there.
race:
	$(GO) test -race -skip '^TestAllocBudget$$' ./internal/client ./internal/layout ./internal/ssp ./internal/cache ./internal/obs ./internal/analysis ./internal/shard ./internal/netsim ./internal/resilience

# chaos-smoke runs a short fixed-seed chaos campaign — connection drops,
# slow replicas and injected write errors against the 3-shard R=2 W=1
# self-healing stack — under the race detector. The run prints its verdict
# and exits non-zero on a diverged campaign. The seed is fixed so a
# failure replays; see docs/RESILIENCE.md.
CHAOS_SPEC ?= 42,10s,mixed
chaos-smoke:
	$(GO) run -race ./cmd/sharoes-bench -chaos $(CHAOS_SPEC)

# bench-smoke runs all four workloads of the repository benchmark
# (BENCHMARK.json, bench/README.md), short, exactly as the driver does —
# built from source into .bench_build/ — and fails unless each result line
# says every output matched the reference model: createlist_wan for the
# metadata path, bulk_tcp for the multi-block path (1 MiB files sealed
# and opened across the crypto worker pool, re-read by the cold
# verifier), shard_wan for the batched fetches through write-behind and
# the 3-SSP router (the replica-walking BatchGet), postmark_tcp for
# appends through a quarter-size cache from two sessions over real
# sockets (tails evicted, refetched and replaced). It checks that the
# benchmark still builds and verifies against the current tree, not its
# numbers.
bench-smoke:
	@for w in createlist_wan bulk_tcp shard_wan postmark_tcp; do \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 6 --trace 0 | tail -n 1); \
		echo "$$out"; \
		case "$$out" in *'"correct":true'*) ;; *) echo "bench-smoke: $$w result line lacks \"correct\":true" >&2; exit 1;; esac; \
	done

# fuzz-smoke runs every fuzz target for a short burst — enough to catch
# regressions on the saved corpus plus a little fresh exploration.
fuzz-smoke:
	@for spec in $(FUZZ_TARGETS); do \
		pkg=$${spec%%:*}; target=$${spec##*:}; \
		echo "--- fuzz $$pkg $$target"; \
		$(GO) test $$pkg -run "^$$target$$" -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

check: build vet test race fuzz-smoke
