# Standard verification pipeline. `make check` runs every check locally; CI
# splits the same targets across jobs and runs each once.

GO ?= go

.PHONY: build vet lint test race repeat-smoke bench bench-json fuzz-smoke cancel-smoke cxl-smoke examples-smoke metrics-smoke report-smoke serve-smoke chaos-smoke check

# Pinned staticcheck version; CI installs exactly this, so lint results are
# reproducible. Update deliberately alongside toolchain bumps.
STATICCHECK_VERSION ?= 2024.1.1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Runs staticcheck when available (PATH or GOPATH/bin), otherwise prints how
# to get it and succeeds — offline and fresh checkouts must not fail the
# pipeline on a missing optional tool. CI installs the pinned version first,
# so there lint findings do fail.
lint:
	@sc=$$(command -v staticcheck || echo "$$($(GO) env GOPATH)/bin/staticcheck"); \
	if [ -x "$$sc" ]; then \
		echo "staticcheck ./..."; \
		"$$sc" ./...; \
	else \
		echo "staticcheck not installed; skipping lint" >&2; \
		echo "install with: $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)" >&2; \
	fi

test:
	$(GO) test ./...

# The experiment suite under the race detector is CPU-bound and can exceed
# go test's default 10m per-package timeout on small machines.
race:
	$(GO) test -race -timeout 40m ./...

# Runs the packages that resolve and load designs twice in one process, so
# state leaking between test runs (e.g. a process-global table a first run
# fills and a second run trips over) fails here. About 10 s.
repeat-smoke:
	$(GO) test -count=2 ./internal/report ./internal/service
	$(GO) test -count=2 -run 'Spec|Design|Panic|RunPair|Unknown|Builtin|Legacy' ./internal/experiment

# Short allocation smoke: tracks the single-run hot path (allocs/op). The
# pinned -count/-benchtime make repeats comparable run-to-run; see README
# "Benchmark trajectory" for how to compare two commits.
bench:
	$(GO) test -run '^$$' -bench SingleRun -benchmem -count 3 -benchtime 2x .

# Machine-checked bench trajectory: repeats the hot-path benchmarks under
# the same fixed iteration plan, aggregates min-of-repeats into
# BENCH_singlerun.json, and fails if any benchmark's allocs/op regresses
# more than 10% against the committed BENCH_baseline.json.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_singlerun.json \
		-baseline BENCH_baseline.json -threshold 0.10

# Short native-fuzz bursts over the compressor round-trips, the design-file
# Overrides schema, the service's job-decode and store-entry verification
# surfaces, and the strict bundle decoder (go test allows one -fuzz target
# per invocation, hence the loops).
FUZZTIME ?= 10s
fuzz-smoke:
	for t in FuzzFPCRoundTrip FuzzBDIRoundTrip FuzzCPackRoundTrip; do \
		$(GO) test ./internal/compress -run '^$$' -fuzz $$t -fuzztime $(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/config -run '^$$' -fuzz FuzzOverridesJSON -fuzztime $(FUZZTIME)
	for t in FuzzJobDecode FuzzStoreVerify; do \
		$(GO) test ./internal/service -run '^$$' -fuzz $$t -fuzztime $(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/report -run '^$$' -fuzz FuzzBundleDecode -fuzztime $(FUZZTIME)

# End-to-end graceful-shutdown check: SIGINT a running sweep, assert a valid
# partial CSV + non-zero exit (see scripts/cancel_smoke.sh).
cancel-smoke:
	sh scripts/cancel_smoke.sh

# End-to-end three-tier check: the shipped DRAM+NVM+CXL design files run
# through cmd/baryonsim -design-file deterministically with a per-tier
# traffic breakdown (see scripts/cxl_smoke.sh).
cxl-smoke:
	sh scripts/cxl_smoke.sh

# Builds and runs every examples/ main (about 6 s together); a non-zero exit
# fails the target. quickstart exits non-zero when the controller's
# structural invariants are violated.
examples-smoke:
	for d in examples/*/; do \
		echo "run $$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# End-to-end observability check: scrape /metrics from a live run and lint it
# with the in-repo OpenMetrics validator, then lint the -metrics-out file.
# Loopback only, so it passes offline (see scripts/metrics_smoke.sh).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# End-to-end regression-gate check: two identical runs produce byte-identical
# bundles, cmd/runreport self-diffs clean, and a tampered counter makes it
# exit non-zero (see scripts/report_smoke.sh).
report-smoke:
	sh scripts/report_smoke.sh

# End-to-end job-server check: baryonsimd serves a repeated submission from
# the result cache byte-identically, drains cleanly on SIGTERM, reloads its
# store cold after a restart, and holds >=50% hit rate under a mixed load
# (see scripts/serve_smoke.sh).
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end crash-safety and overload check: kill -9 the daemon mid-flight,
# corrupt and truncate store entries, flood it open-loop past capacity — it
# must recover, quarantine, self-heal byte-identically and shed load with
# 429s that retrying clients converge through (see scripts/chaos_smoke.sh).
chaos-smoke:
	sh scripts/chaos_smoke.sh

check: build vet lint race repeat-smoke bench fuzz-smoke cancel-smoke cxl-smoke examples-smoke metrics-smoke report-smoke serve-smoke chaos-smoke
