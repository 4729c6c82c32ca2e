# Convenience wrappers around dune. `make help` lists targets.

.PHONY: all build test bench bench-json bench-baseline bench-check profile \
	perfbench tracedump fmt clean help

# perfbench workload, seed and mode (0: end-to-end metrics, 1:
# per-layer metrics); see BENCHMARK.json
WORKLOAD ?= lookup-steady
SEED ?= 1
TRACE ?= 0

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe -- micro

bench-json:
	dune exec bench/main.exe -- micro --json

bench-baseline:
	dune exec bench/main.exe -- micro --json -o BENCH_baseline.json

# The CI perf gate, runnable locally: fresh micro run vs the committed
# baseline, failing on any kernel >25% slower.
bench-check:
	dune exec bench/main.exe -- micro --json -o BENCH_new.json
	dune exec bin/statsdump.exe -- --bench BENCH_baseline.json BENCH_new.json

# Profiled end-to-end run: prints the phase breakdown and writes a run
# manifest (inspect with `dune exec bin/statsdump.exe -- run.json`).
profile:
	dune exec bin/experiments.exe -- fig6 --size quick --profile --manifest run.json

# The repository benchmark on one workload and seed; it builds its own
# copy of lib/ under perfbench/_work.
perfbench:
	python3 perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) \
		--seconds 20 --trace $(TRACE)

tracedump:
	dune exec bin/tracedump.exe -- --nodes 100 --out trace.jsonl

fmt:
	@if [ -f .ocamlformat ]; then dune build @fmt --auto-promote; \
	else echo "no .ocamlformat in this repo; skipping"; fi

clean:
	dune clean

help:
	@echo "make build          build everything (dune build @all)"
	@echo "make test           run the full test suite"
	@echo "make bench          run the Bechamel micro-benchmarks"
	@echo "make bench-json     micro-benchmarks + BENCH.json report"
	@echo "make bench-baseline regenerate the committed perf baseline"
	@echo "make bench-check    micro-benchmarks gated against the baseline"
	@echo "make profile        profiled fig6 quick run + run.json manifest"
	@echo "make perfbench      benchmark one workload (WORKLOAD= SEED= TRACE=)"
	@echo "make tracedump      100-node traced churn run + trace summary"
	@echo "make fmt            dune build @fmt (when .ocamlformat exists)"
	@echo "make clean          dune clean"
