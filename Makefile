# Developer entry points. `make verify` is the CI gate: tier-1
# (build + full tests) plus vet and the race detector over the engine,
# adversary and buffer hot paths — the packages the incremental
# max-queue and timestamp-ring bookkeeping live in — and over the
# parallel probe layer (stability.SweepGrid / ParallelThresholdSearch)
# and the experiment runners that fan out through it, plus the
# observability layer (internal/obs) riding both hot paths. The race
# package list also covers the leap engine (internal/sim leap windows,
# adversary StaticUntil horizons, obs leap observers) — the
# leap-vs-step differential property test runs under -race here.
# It runs every benchmark of the benchmarked packages once, so a
# benchmark that no longer compiles or fails is caught. Last, it vets
# and tests the perfbench module: it has its own go.mod, so the root
# `go build ./...` never compiles it, and an API it uses could
# otherwise be deleted unnoticed.

GO ?= go

.PHONY: verify test vet race bench-check perfbench-check ab bench bench-diff sweep-smoke trace-smoke leap-smoke scenario-smoke drop-smoke checkpoint-smoke telemetry-smoke fuzz

verify: test vet race bench-check perfbench-check

test:
	$(GO) build ./...
	$(GO) test ./...

# vet also fails when gofmt would reformat a tracked Go file.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race ./internal/sim/... ./internal/adversary/... ./internal/buffer/... ./internal/stability/... ./internal/expt/... ./internal/obs/... ./internal/scenario/...

# Every engine, observer, pump-layer, spec-parsing and spec-building
# benchmark, once.
bench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim ./internal/obs ./internal/adversary ./internal/scenario

perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# Paired same-host A/B (tools/ab.sh): BASE, a git revision checked
# out as a worktree under .ab_build/, against the working tree, ROUNDS
# interleaved rounds. `ab` runs the end-to-end benchmark on WORKLOAD
# with the same seeds on both sides; prints per-round values and the
# median B/A ratio with its bootstrap CI.
BASE ?= HEAD
WORKLOAD ?= pump
ROUNDS ?= 5
ab:
	bash tools/ab.sh $(BASE) $(WORKLOAD) $(ROUNDS)

# Every engine, observer, pump-layer, spec-parsing and spec-building
# benchmark at the default benchtime.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim ./internal/obs ./internal/adversary ./internal/scenario

# The hot-path regression gate: the Step* benchmarks of internal/sim
# and internal/obs paired against BASE (the ab micro workload); exits
# nonzero on a >8% ns/op regression whose CI lies above 1, on any
# allocs/op rise, or on a new B/op or allocs/op on a 0 path.
bench-diff:
	bash tools/ab.sh $(BASE) micro $(ROUNDS)

# Quick end-to-end pass over both `aqt sweep` modes at full fan-out —
# the same configurations its golden tests in cmd/aqt pin
# byte-identical across -workers settings.
sweep-smoke:
	$(GO) run ./cmd/aqt sweep -n 6 -from 0.5 -to 0.8 -points 7 -scap 800 -workers 0
	$(GO) run ./cmd/aqt sweep -rate 0.7 -depths 3,4,6 -scap 800 -workers 0

# Flight-recorder end-to-end smoke: trace a short run on the G_ε
# instability graph; `aqt sim` self-validates the dump against the
# JSONL schema (exit nonzero on a schema break).
trace-smoke:
	$(GO) run ./cmd/aqt sim -topo geps -size 4 -policy FIFO -w 20 -rate 1/4 -steps 2000 -trace /tmp/aqt-trace-smoke.jsonl -metrics

# Leap-mode end-to-end smoke: the leap-vs-step differential tests plus
# a long `aqt sim` run under the extremal burst adversary with -leap,
# whose output (modulo ns/step) must match the stepped run exactly.
leap-smoke:
	$(GO) test ./internal/sim -run 'Leap' -count 1
	$(GO) run ./cmd/aqt sim -topo line -size 8 -adv burst -w 512 -rate 1/4 -maxlen 3 -steps 100000 -leap

# Scenario end-to-end smoke: strict-validate every checked-in spec,
# then build and run them all across the worker pool. Exit nonzero on
# any validation error, run panic or failed post-run check.
scenario-smoke:
	$(GO) run ./cmd/aqt scenario validate scenarios/*.json
	$(GO) run ./cmd/aqt scenario run -workers 0 scenarios/*.json

# Bounded-buffer end-to-end smoke: the drop-policy and leap-equivalence
# differential tests, the E14 goodput-vs-capacity experiment in quick
# mode, the bounded scenario spec, and a lossy `aqt sim` run under
# -cap/-drop (exact per-edge drop accounting is checked in-process by
# the engine's conservation law).
drop-smoke:
	$(GO) test ./internal/sim -run 'Drop|Bounded' -count 1
	$(GO) run ./cmd/aqt experiments -quick -only E14
	$(GO) run ./cmd/aqt scenario run scenarios/e14.json
	$(GO) run ./cmd/aqt sim -topo line -size 4 -adv burst -w 20 -rate 1/4 -cap 1 -drop head -steps 2000

# Checkpoint/restore end-to-end smoke: the corpus-wide resume
# differential tests, then two diffs that fail the target on any
# difference. An `aqt sim` split run (800 steps, a checkpoint file,
# then 1200 more) must print what a straight 2000-step run prints, less
# the ns/step figure and the "restored …" / "checkpoint written …"
# lines; and a scenario report resumed from a -checkpoint-every 250
# checkpoint must equal a plain run's report.
CKPT_SMOKE = /tmp/aqt-ckpt-smoke
CKPT_FILTER = sed -E -e 's/, [^,]* ns\/step$$//' -e '/^(restored |checkpoint written )/d'
checkpoint-smoke:
	$(GO) test ./internal/scenario -run 'Checkpoint' -count 1
	$(GO) test ./internal/sim -run 'Checkpoint' -count 1
	rm -rf $(CKPT_SMOKE) && mkdir -p $(CKPT_SMOKE)
	$(GO) build -o $(CKPT_SMOKE)/aqt ./cmd/aqt
	$(CKPT_SMOKE)/aqt sim -topo ring -size 6 -steps 2000 -seed 3 | $(CKPT_FILTER) > $(CKPT_SMOKE)/straight.txt
	$(CKPT_SMOKE)/aqt sim -topo ring -size 6 -steps 800 -seed 3 -checkpoint $(CKPT_SMOKE)/sim.ckpt.json > /dev/null
	$(CKPT_SMOKE)/aqt sim -topo ring -size 6 -steps 1200 -seed 3 -restore $(CKPT_SMOKE)/sim.ckpt.json | $(CKPT_FILTER) > $(CKPT_SMOKE)/split.txt
	diff $(CKPT_SMOKE)/straight.txt $(CKPT_SMOKE)/split.txt
	$(CKPT_SMOKE)/aqt scenario run scenarios/quickstart.json > $(CKPT_SMOKE)/plain.txt
	$(CKPT_SMOKE)/aqt scenario run -checkpoint-every 250 -checkpoint-dir $(CKPT_SMOKE) scenarios/quickstart.json > /dev/null
	$(CKPT_SMOKE)/aqt scenario run -restore $(CKPT_SMOKE)/quickstart-two-phase.ckpt.json scenarios/quickstart.json > $(CKPT_SMOKE)/resumed.txt
	diff $(CKPT_SMOKE)/plain.txt $(CKPT_SMOKE)/resumed.txt

# Live-telemetry end-to-end smoke: serve scenario E13 over HTTP with
# -serve-hold, poll /healthz until the server is up, scrape /metrics,
# /series and /trace off the live server and check each carries its
# expected content, then kill the server. The `aqt sim` run at the end
# exercises the sampler + span tracer through -trace, whose dump is
# self-validated against the JSONL schema (exit nonzero on a break).
TELEMETRY_ADDR ?= 127.0.0.1:9464
telemetry-smoke:
	$(GO) build -o /tmp/aqt-smoke ./cmd/aqt
	/tmp/aqt-smoke scenario run -serve $(TELEMETRY_ADDR) -serve-hold -sample-every 64 scenarios/e13.json & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=; for i in $$(seq 1 100); do \
		curl -fsS http://$(TELEMETRY_ADDR)/healthz >/dev/null 2>&1 && ok=1 && break; sleep 0.1; \
	done; \
	test -n "$$ok" || { echo "telemetry-smoke: server never came up on $(TELEMETRY_ADDR)"; exit 1; }; \
	ok=; for i in $$(seq 1 300); do \
		curl -fsS http://$(TELEMETRY_ADDR)/series 2>/dev/null | grep -q '"kind":"sample"' && ok=1 && break; sleep 0.1; \
	done; \
	test -n "$$ok" || { echo "telemetry-smoke: /series never published a sample"; exit 1; }; \
	curl -fsS http://$(TELEMETRY_ADDR)/healthz | grep -q '^ok' || { echo "telemetry-smoke: bad /healthz"; exit 1; }; \
	curl -fsS http://$(TELEMETRY_ADDR)/metrics | grep -q '^# TYPE aqt_' || { echo "telemetry-smoke: /metrics has no aqt_ families"; exit 1; }; \
	curl -fsS http://$(TELEMETRY_ADDR)/trace >/dev/null || { echo "telemetry-smoke: /trace unreachable"; exit 1; }; \
	echo "telemetry-smoke: live endpoints ok"
	$(GO) run ./cmd/aqt sim -topo line -size 8 -adv burst -w 64 -rate 1/4 -steps 4000 -sample-every 16 -spans 1 -trace /tmp/aqt-telemetry-smoke.jsonl

# One 30s fuzz campaign per target. -fuzz takes one target per package
# run, so every pattern is anchored: an unanchored name would also match
# any later target it is a prefix of. FuzzScenarioLoad minimizes a new
# input for at most 2s: at the default 60s one ~40 KB spec mutant took
# most of the campaign at 0 execs/s.
fuzz:
	$(GO) test -fuzz '^FuzzRandomWRWindow$$' -fuzztime 30s ./internal/adversary
	$(GO) test -fuzz '^FuzzSharedEdge$$' -fuzztime 30s ./internal/adversary
	$(GO) test -fuzz '^FuzzRouteChecks$$' -fuzztime 30s ./internal/graph
	$(GO) test -fuzz '^FuzzKeyedHeapAgreement$$' -fuzztime 30s ./internal/sim
	$(GO) test -fuzz '^FuzzDropPolicy$$' -fuzztime 30s ./internal/sim
	$(GO) test -fuzz '^FuzzAdmitRoutes$$' -fuzztime 30s ./internal/sim
	$(GO) test -fuzz '^FuzzScenarioLoad$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/scenario
	$(GO) test -fuzz '^FuzzCheckpointLoad$$' -fuzztime 30s ./internal/scenario
	$(GO) test -fuzz '^FuzzBufferOps$$' -fuzztime 30s ./internal/buffer
	$(GO) test -fuzz '^FuzzArithmetic$$' -fuzztime 30s ./internal/rational
	$(GO) test -fuzz '^FuzzPacerCumulative$$' -fuzztime 30s ./internal/rational
