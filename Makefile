# Convenience targets for the repro project.

.PHONY: install test bench bench-quick bench-trend obs-smoke obs-bench profile-bench analytic-bench vector-bench vector-smoke zoo-smoke zoo-bench check-diff check-diff-long streams-diff exhibits examples serve smoke-service fleet-smoke fleet-bench clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Reduced sweep through the parallel engine + trace store; asserts the
# warm-store path is >=3x faster than a serial cold start and records
# the timings in BENCH_PR1.json for cross-PR perf tracking.
bench-quick:
	PYTHONPATH=src python benchmarks/bench_quick.py

# Cross-PR regression gate: aggregates the committed BENCH_PR*.json
# into per-metric series and fails if any tracked headline metric's
# latest point is >10% worse than its series best (BENCH_TREND.json).
bench-trend:
	PYTHONPATH=src python benchmarks/bench_trend.py

# Telemetry gate (docs/observability.md): a traced quick sweep must
# produce a schema-valid Perfetto trace with one `cell` span per
# executed cell and a manifest whose outcome counts sum to the grid.
obs-smoke:
	PYTHONPATH=src python -m repro.obs.smoke

# Telemetry overhead probe alone (also runs as part of bench-quick):
# traced vs untraced warm sweeps, <=5% overhead, BENCH_PR5.json.
obs-bench:
	PYTHONPATH=src python benchmarks/bench_obs.py

# Analytic Table-4 screen gate: the stack-distance search must agree
# with brute force on every cell while simulating <=25% of the config
# grid; timings land in BENCH_PR4.json (docs/analytic.md).
profile-bench:
	PYTHONPATH=src python benchmarks/bench_profile.py

# PR 8 analytic gate: the combined-locality screen must beat the PR 4
# simulated-config baseline strictly, and every closed-form stream
# sweep's witness replay must land inside its declared error bound;
# results in BENCH_PR8.json (docs/analytic.md).
analytic-bench:
	PYTHONPATH=src python benchmarks/bench_analytic.py

# Vector engine gate alone (also runs as part of bench-quick): scalar
# vs batch L1 simulation times (bit-identical) and the warm jobs=1 sweep
# wall time against the pinned scalar anchor, BENCH_PR6.json
# (docs/vectorized.md).
vector-bench:
	PYTHONPATH=src python benchmarks/bench_vector.py

# Vector differ stage on a small corpus: the L1 and sampled-L2 batch
# engines of repro.sim.vector vs their scalar counterparts,
# first-diverging-event reports (`repro check --replay vector:SEED`
# reproduces one).
vector-smoke:
	PYTHONPATH=src python -m repro check --seeds 50 --no-registry --stages vector

# Mechanism-zoo differ stages on a small corpus: the production victim
# cache, miss cache and hybrid stacks vs their golden oracles, per-event
# and through run()/replay_secondary() (docs/mechanisms.md).
zoo-smoke:
	PYTHONPATH=src python -m repro check --seeds 50 --no-registry \
		--stages victim,misscache,hybrid

# PR 9 mechanism-zoo gate: the mechzoo exhibit (min matching L2 per
# secondary mechanism) over a reduced slice, cold vs warm store, every
# match witnessed by a probed simulation; results in BENCH_PR9.json.
zoo-bench:
	PYTHONPATH=src python benchmarks/bench_mechzoo.py

# Differential check: optimized simulators vs the golden reference
# models over a fixed random corpus (docs/modeling.md).  Fails on any
# divergence; `repro check --replay STAGE:SEED` reproduces one.
check-diff:
	PYTHONPATH=src python -m repro check --seeds 50

# The stream-buffer engine vs its golden oracle on a 200-seed corpus:
# per-event and bulk run() (both of its loops), hybrid stacks with a
# trailing stream member, the batch cache engines, and the one-pass
# n_streams ladder vs per-count replays (both forks and the merge must fire);
# then the streams stage again with REPRO_CHECK=1, so every lane
# operation runs the flat-window structural invariants, and a 50-seed
# ladder slice with every ladder-derived StreamStats through the
# conservation checks (its per-count references replay checked, ~40 s).
streams-diff:
	PYTHONPATH=src python -m repro check --seeds 200 --no-registry \
		--stages streams,hybrid,vector,ladder
	REPRO_CHECK=1 PYTHONPATH=src python -m repro check --seeds 200 --no-registry \
		--stages streams
	REPRO_CHECK=1 PYTHONPATH=src python -m repro check --seeds 50 --no-registry \
		--stages ladder

# Extended corpus for pre-release confidence: more seeds, longer traces,
# and the runtime invariants armed throughout.
check-diff-long:
	REPRO_CHECK=1 PYTHONPATH=src python -m repro check --seeds 300 --events 4000 \
		--registry-scale 0.1

# The always-on simulation service (docs/service.md).  Local dev
# defaults: pool of 4 workers sharing a persistent store.
serve:
	PYTHONPATH=src python -m repro serve --port 8077 --jobs 4 \
		--trace-store .trace-store --max-queue 64

# Boot a real `repro serve` subprocess, one request round-trip, SIGINT
# shutdown — the CI service-smoke job runs exactly this.
smoke-service:
	PYTHONPATH=src python -m repro.service.smoke

# Fleet gate (docs/fleet.md): 1 frontend + 2 self-registering worker
# subprocesses, duplicate concurrent sweeps executed exactly once
# cluster-wide, >=2 worker pids in the merged manifest, clean SIGINT.
fleet-smoke:
	PYTHONPATH=src python -m repro.fleet.smoke

# Zipf load generator vs fleets of 0 / 2 / 4 workers; throughput,
# latency percentiles and dedup counters land in BENCH_PR7.json.
# CI runs the reduced profile: make FLEET_BENCH_PROFILE=ci fleet-bench
FLEET_BENCH_PROFILE ?= full
fleet-bench:
	PYTHONPATH=src python benchmarks/bench_fleet.py --profile $(FLEET_BENCH_PROFILE)

# Regenerate every paper exhibit, printing the renderings.
exhibits:
	pytest benchmarks/ --benchmark-only -s -k "table or figure"

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python $$script || exit 1; \
	done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	rm -rf benchmarks/.trace-store
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
