.PHONY: all build inline-check test bench bench-smoke benchmark-smoke mc-smoke mc-bench fuzz-smoke synth-smoke serve-smoke doc examples clean

all: build

build:
	dune build @all

# Guards the optimized default build (dune-workspace): fails if a
# module of lib/memsim or lib/mc was compiled without the .cmx of an
# in-project implementation it imports, as dune's dev profile does
# (-opaque), so that no call into it can be inlined. ocamlobjinfo then
# prints a dashed line in place of that import's CRC. It also fails if
# it finds no in-project import at all, so a change of output format
# cannot pass it vacuously.
INLINE_CHECK_CMX = _build/default/lib/memsim/.memsim.objs/native/*.cmx \
	_build/default/lib/mc/.mc.objs/native/*.cmx

inline-check: build
	@ocamlobjinfo $(INLINE_CHECK_CMX) | awk ' \
	  /^File / { file = $$2 } \
	  /^Implementations imported:/ { imp = 1; next } \
	  /^[^\t]/ { imp = 0 } \
	  imp && $$2 ~ /^(Memsim|Mc|Telemetry)__/ { \
	    total++; \
	    if ($$1 ~ /^-+$$/) { opaque++; print file ": no CRC for " $$2 } } \
	  END { \
	    printf "inline-check: %d in-project implementation imports, %d without a CRC\n", total, opaque; \
	    exit (total == 0 || opaque > 0) }'

test:
	dune runtest

# Regenerate every experiment table (DESIGN.md index E1..E11, MC, T1)
bench:
	dune exec bench/main.exe

# Fast agreement check of the multicore engine (also part of dune
# runtest; the binary also pins the bounded/deepening verdicts against
# the exact engine), then the CLI bounded legs: a --reorder-bound 2
# check on bakery/PSO (saturates, exact verdict; its final run record
# must name the domain count, POR and the state cap behind the
# verdict) and one iterative-deepening run (per-level records), then
# the view-backend
# legs: the 2+2W litmus cell under RA (weak outcome reachable) and
# SRA (forbidden — the pinned RA/SRA separator) and a bakery check on
# each. Those legs write NDJSON stats (uploaded as CI artifacts). The
# exit-code legs pin the verdict codes: 0 for a clean check (peterson),
# 1 for a finding (peterson-unfenced violates mutual exclusion under
# PSO), 2 for a clean run that did not cover the state space (bakery
# n=3 check and obstruction runs cut short by --max-states). The last
# legs pin option validation: a count below 1 (--jobs, --rounds,
# --max-states, --seeds, --count, --procs, --len) and an --pi that is
# not a permutation of 0..k-1 are usage errors (exit 124), not a run
# that loops forever, checks nothing or crashes.
mc-smoke:
	dune exec test/mc_smoke.exe
	dune exec bin/fencelab_cli.exe -- check bakery -m PSO -n 2 \
	--reorder-bound 2 --stats-out MC_smoke_bounded.ndjson
	for f in '"jobs":1,' '"por":false,' '"max_states":1000000,'; do \
	  tail -n 1 MC_smoke_bounded.ndjson | grep -qF "$$f" \
	    || { echo "mc-smoke: run record lacks $$f" >&2; exit 1; }; \
	done
	dune exec bin/fencelab_cli.exe -- check bakery -m PSO -n 2 \
	--reorder-bound deepen --stats-out MC_smoke_deepen.ndjson
	dune exec bin/fencelab_cli.exe -- litmus 2+2W -m RA \
	--stats-out MC_smoke_ra.ndjson
	dune exec bin/fencelab_cli.exe -- litmus 2+2W -m SRA \
	--stats-out MC_smoke_sra.ndjson
	dune exec bin/fencelab_cli.exe -- check bakery -m RA -n 2
	dune exec bin/fencelab_cli.exe -- check bakery -m SRA -n 2
	for leg in "0 check peterson -n 2 -m PSO" \
	  "1 check peterson-unfenced -n 2 -m PSO" \
	  "2 check bakery -n 3 -m PSO --max-states 20000" \
	  "2 obstruction bakery -n 3 -m PSO --max-states 20000"; do \
	  set -- $$leg; want=$$1; shift; \
	  dune exec bin/fencelab_cli.exe -- "$$@" 2>/dev/null; \
	  code=$$?; echo "fencelab $$*: exit $$code (want $$want)"; \
	  test $$code -eq $$want || exit 1; \
	done
	for args in "check peterson -n 2 --jobs 0" \
	  "check bakery --rounds=-2" "check peterson -n 2 --max-states=0" \
	  "obstruction peterson -n 2 --max-states=0" \
	  "synth --family bakery -m PSO -n 2 --max-states=0" \
	  "stress bakery --seeds=-3" "fuzz --count=-1" \
	  "fuzz --procs 0 --len 0 --count 3" \
	  "encode bakery --pi 0012" "encode bakery -n 3 --pi 9"; do \
	  dune exec bin/fencelab_cli.exe -- $$args 2>/dev/null; \
	  code=$$?; echo "fencelab $$args: exit $$code"; \
	  test $$code -eq 124 || exit 1; \
	done

# States/sec of the parallel engine by domain count; writes BENCH_mc.json
mc-bench:
	dune exec bench/main.exe -- MC

# Capped MC bench run doubling as a regression guard: sweeps j in
# {1,4} and exits 1 if the aggregate throughput of the largest swept j
# that fits the machine's CPUs (j=4 on 4+ CPUs) regresses below j=1;
# on a 2- or 3-CPU machine no swept j > 1 fits, and the guard prints
# that scaling was not measured (j=2 measures no steady gain here), so
# there the guard checks only that the capped run completes. Never
# touches the committed BENCH_mc.json numbers. The scaling guard runs
# with telemetry always-on bumps compiled in, so where it runs, a
# regression in the zero-cost-when-off discipline fails too. The
# second step exercises the observability surface end to end: a
# capped check with live progress writing BENCH_check.ndjson
# (uploaded as a CI artifact); its cap cuts the run short, so it must
# exit 2 (no violation found, state space not covered).
bench-smoke:
	BENCH_MC_CAP=200000 BENCH_MC_JOBS=1,4 BENCH_MC_GUARD=1 \
	dune exec bench/main.exe -- MC
	dune exec bin/fencelab_cli.exe -- check bakery -n 3 --max-states 50000 \
	-j 1 --progress --interval 0.2 --stats-out BENCH_check.ndjson; \
	test $$? -eq 2

# Benchmark agreement smoke: one-second runs of the check-j1 and
# views-flat workloads (benchmark/README.md) with the traced pass on.
# The traced pass re-runs every input on the benchmark's replica of
# the one-domain expansion loop and, on check-j1, at two domains, so
# a run reports "correct": true only if the replica's counts equal
# Mc's and the two-domain counts equal the one-domain ones. Fails
# unless each run's last line (its JSON result) says "correct": true
# and "failed": 0.
benchmark-smoke:
	for w in check-j1 views-flat; do \
	  last=$$(python3 benchmark/run.py --workload $$w --seed 1 --seconds 1 \
	    --trace 1 | tail -n 1); \
	  echo "$$w: $$last" | cut -c 1-160; \
	  echo "$$last" | grep -q '"correct": true' \
	    && echo "$$last" | grep -q '"failed": 0,' \
	    || { echo "benchmark-smoke: $$w failed" >&2; exit 1; }; \
	done

# Deterministic differential-fuzzing smoke run: FUZZ_COUNT generated
# programs (default 250) through all seven oracles; shrunk
# counterexample artifacts land in _fuzz/ on failure
fuzz-smoke:
	dune exec bin/fencelab_cli.exe -- fuzz --count $${FUZZ_COUNT:-250} --len 7 --regs 3 --values 3

# Deterministic fence-synthesis smoke run (<30s): bakery under PSO at
# n=2 with both strategies, one stats file each (--stats-out truncates).
# The cegar run writes the frontier JSON; diffing the two NDJSON run
# records' counters prices cegar's oracle-call savings. All three files
# are CI artifacts.
synth-smoke:
	dune exec bin/fencelab_cli.exe -- synth --family bakery -m PSO -n 2 \
	--strategy cegar -j 2 --stats-out SYNTH_stats_cegar.ndjson \
	--frontier-out SYNTH_frontier.json
	dune exec bin/fencelab_cli.exe -- synth --family bakery -m PSO -n 2 \
	--strategy exhaustive -j 2 --stats-out SYNTH_stats_exhaustive.ndjson

# Serve daemon smoke (<5s): a 3-job spool — a bakery/PSO check with a
# small checkpoint interval, one litmus cell, and the full GT_f/Count
# atlas sweep over n in {2..64} — through `fencelab serve` twice.
# Leg 1 kills itself (exit 70, asserted) right after the check job's
# first checkpoint is persisted, orphaning c1.ckpt; leg 2 restarts on
# the same spool, skips the jobs whose .done markers exist, resumes
# the check from the cut, and must land the same verdict and exact
# state/transition counts as an uninterrupted run (the equivalence is
# pinned by test/test_serve.ml; here we assert the resume record and
# clean completion). The two NDJSON streams and the atlas JSON are CI
# artifacts.
serve-smoke:
	rm -rf _serve && mkdir -p _serve
	printf '%s\n' \
	'{"job":"check","id":"c1","lock":"bakery","model":"PSO","nprocs":2}' \
	'{"job":"litmus","id":"l1","test":"SB","model":"TSO"}' \
	'{"job":"atlas","id":"a1","model":"PSO","nprocs":[2,4,8,16,32,64],"out":"SERVE_atlas.json"}' \
	> _serve/batch.job
	dune exec bin/fencelab_cli.exe -- serve --spool _serve --window 2 \
	--checkpoint-every 400 --crash-after-checkpoints 1 \
	--stats-out SERVE_smoke_leg1.ndjson; test $$? -eq 70
	test -f _serve/c1.ckpt
	dune exec bin/fencelab_cli.exe -- serve --spool _serve --window 2 \
	--checkpoint-every 400 --stats-out SERVE_smoke_leg2.ndjson
	grep -q '"type":"resume","job_id":"c1"' SERVE_smoke_leg2.ndjson
	grep '"type":"job_done","job_id":"c1"' SERVE_smoke_leg2.ndjson \
	| grep -q '"ok":true'
	grep -q '"type":"atlas"' SERVE_atlas.json
	test ! -f _serve/c1.ckpt

doc:
	dune build @doc

examples:
	dune exec examples/quickstart.exe
	dune exec examples/tradeoff_explorer.exe
	dune exec examples/weak_memory_tour.exe
	dune exec examples/counting_service.exe
	dune exec examples/lower_bound_lab.exe
	dune exec examples/fence_synthesizer.exe

clean:
	dune clean
