# Developer entry points. CI (.github/workflows/ci.yml) calls these
# targets rather than repeating their package lists and specs.

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
	./internal/meta:FuzzOpenBlock \
	./internal/meta:FuzzOpenMeta \
	./internal/cap:FuzzOpenView \
	./internal/cache:FuzzCache \
	./internal/analysis:FuzzParseAllowDirective

FUZZTIME ?= 10s

.PHONY: all build fmt-check test vet race chaos-smoke fuzz-smoke micro-smoke bench-smoke check

all: build

build:
	$(GO) build ./...

# fmt-check fails when gofmt would reformat any tracked .go file, or
# cannot parse one. testdata is skipped: it holds a fixture that is
# unparseable on purpose (brokenload).
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go' | grep -Ev '(^|/)testdata/') 2>&1); \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:" >&2; echo "$$out" >&2; exit 1; fi

test:
	$(GO) test ./...

# vet = the stock toolchain vet plus the repo's own invariant analyzers:
# three security analyzers (seeded randomness, error hygiene, the trust
# boundary's call-site list, which confines a key's raw bytes in every
# package), one concurrency analyzer (lock ordering), and three
# error-propagation/lifecycle analyzers (errdrop, errwrap, resleak).
# Copied locks are go vet's copylocks check; keys that print, empty
# AADs and leaked goroutines are held by sharocrypto's types, a panic
# and each test binary's leak check. sharoes-vet runs all seven
# over the whole module, cold, and fails on ANY unsuppressed finding
# (exit 1) or load error (exit 2). Bare //sharoes-vet:allow directives
# (no justification) are findings. See docs/ANALYZERS.md for the
# analyzer tables and allow conventions.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/sharoes-vet ./...

# race runs every tested package that uses sync primitives under the race
# detector (internal/layout for the crypto worker pool that seals file
# blocks, internal/meta and internal/cap for the process-wide verified-
# envelope memo every seal and open shares, internal/shard for the
# self-heal stress test and concurrent quorum I/O, internal/resilience for
# the retry path, internal/netsim for the simulated link the sever and
# drain tests run over, internal/workload for the
# chaos campaign, cmd/sharoes-cli and
# cmd/sharoes-migrate for a whole command run against an SSP on a loopback
# port, server goroutines included, and cmd/sharoes-ssp for the server
# command itself, run until cancelled and drained). The goroutine-leak
# verdict is per package: every package here that starts the module's
# goroutines has a TestMain (internal/leakcheck) that fails its binary
# when its tests leave one running, under the detector too. It is the dynamic gate for the
# lock-balance and mixed atomic/plain shapes sharoes-vet does not check
# (docs/ANALYZERS.md, "Seeded-bug campaign"). TestFig9ShapeHolds is
# skipped: its crypto share of wall time is a timing ratio the
# detector's instrumentation distorts. TestAllocBudget runs: with no
# sync.Pool left in the module its counts hold under the detector too.
race:
	$(GO) test -race -skip '^TestFig9ShapeHolds$$' \
		./internal/client ./internal/layout ./internal/meta ./internal/cap \
		./internal/ssp ./internal/cache ./internal/obs ./internal/shard \
		./internal/netsim ./internal/resilience \
		./internal/keys ./internal/sharocrypto ./internal/stats ./internal/wire \
		./internal/baseline ./internal/workload \
		./cmd/sharoes-cli ./cmd/sharoes-migrate ./cmd/sharoes-ssp

# chaos-smoke runs a short fixed-seed chaos campaign — connection drops,
# slow replicas and injected write errors against the 3-shard R=2 W=1
# self-healing stack, in the benchmark's shard_wan shape — under the race
# detector. The run prints its verdict and exits non-zero on a diverged
# campaign. The seed is fixed so a failure replays; see docs/RESILIENCE.md.
CHAOS_SPEC ?= 42,10s,mixed
chaos-smoke:
	$(GO) run -race ./cmd/sharoes-bench -chaos $(CHAOS_SPEC)

# bench-smoke runs all four workloads of the repository benchmark
# (BENCHMARK.json, bench/README.md), short, exactly as the driver does —
# built from source into .bench_build/ — and fails unless each result line
# says every output matched the reference model and no operation failed
# ("correct":true, "failed":0): createlist_wan for the
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
		case "$$out" in *'"failed":0,'*) ;; *) echo "bench-smoke: $$w result line has a \"failed\" count other than 0" >&2; exit 1;; esac; \
	done

# micro-smoke runs the SSP's read-behind-a-batch benchmark
# (internal/ssp BenchmarkReadBehindBatch: a two-key read while a 64 B,
# 12 KiB or 128 KiB BatchPut is in flight on the same loopback
# connection) once per size, so it keeps building and running. It checks
# that the benchmark works, not its numbers; EXPERIMENTS.md has those.
micro-smoke:
	$(GO) test ./internal/ssp -run '^$$' -bench '^BenchmarkReadBehindBatch$$' -benchtime 1x

# fuzz-smoke runs every fuzz target for a short burst — enough to catch
# regressions on the saved corpus plus a little fresh exploration.
fuzz-smoke:
	@for spec in $(FUZZ_TARGETS); do \
		pkg=$${spec%%:*}; target=$${spec##*:}; \
		echo "--- fuzz $$pkg $$target"; \
		$(GO) test $$pkg -run "^$$target$$" -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# check runs every gate CI runs (.github/workflows/ci.yml), so a tree
# that passes it locally passes CI: build, format, vet, tests, the race
# detector, the fuzz burst, the micro-benchmark smoke, the chaos campaign
# and the benchmark smoke.
check: build fmt-check vet test race fuzz-smoke micro-smoke chaos-smoke bench-smoke
