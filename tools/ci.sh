#!/usr/bin/env bash
# CI driver for the ftrsn repository:
#   1. regular build + full test suite, then the SHA-pinned differential
#      corpus judge (tools/judge.sh: packed 64-lane sweeps of every
#      ITC'02 SoC, the fixed-seed random RSNs and two ~2k-element
#      scale_soc networks digested and compared against
#      tests/data/corpus/manifest.sha256);
#   2. ASan+UBSan build + full test suite, then deeper soaks of the
#      oracle differential suite (ctest -L oracle, scaled by
#      FTRSN_ORACLE_ITERS), of the fault-metric engine equivalence
#      suite — including the packed lane-boundary and SIMD-kernel tests —
#      (ctest -L metric, scaled by FTRSN_METRIC_ITERS) and of the
#      SSP-vs-cost-scaling min-cost-flow differential suite (ctest -L ilp,
#      scaled by FTRSN_ILP_ITERS) under the sanitizers, plus a small-SoC
#      corpus replay with the scalar cross-check forced on every network;
#   3. TSan build (FTRSN_SANITIZE=thread) of the metric engine suite
#      (packed batches included), the batch runner suite and the serve
#      suite — the places the library spawns threads (the batch suite
#      exercises nested parallel_for scheduling, the serve suite the
#      single-flight cache handoff and the socket transport);
#   4. bench smokes: BENCH_fault_metric.json and BENCH_batch_flow.json
#      must be emitted with the expected schemas and bit-identical
#      aggregates; on hosts with >= 8 hardware threads the intra-network
#      and batch speedups are asserted too (skipped on small runners,
#      where wall-clock scaling is physically impossible);
#   4b. serve smoke: bench_serve under a reduced request storm must emit a
#      schema-valid BENCH_serve.json whose hardware-independent gates hold
#      (cache hit rate > 0.5, single-flight coalescing observed, LRU
#      evictions under the tiny budget, warm results byte-identical to a
#      cold service) — the same gates are re-checked on the checked-in
#      envelope; then a real daemon (`rsn_tool serve`) is driven through a
#      scripted tools/serve_client.py session that counter-asserts cache
#      hits and byte-identical repeated answers over the socket, ending in
#      a clean client-initiated shutdown;
#   4c. augment-scaling smoke: bench_augment_scaling on small synthetic
#      instances must emit a schema-valid envelope where both flow engines
#      agree on every objective and the hardware-independent work ratio
#      (SSP Dijkstra arc scans / cost-scaling pushes+relabels) clears 3x
#      on the largest common instance — the counters are deterministic,
#      so this gate is meaningful on any runner;
#   5. rsn-lint over generated and synthesized example networks
#      (must report zero error-severity findings, exit status 0), plus
#      JSON and SARIF emitter checks;
#   5b. fix-engine smoke: a deliberately broken network must repair to a
#      clean fixpoint via `rsn-lint --fix`, `--fix-dry-run` must leave the
#      input byte-identical, and the SARIF emitted in fix mode must carry
#      schema-valid `fix` records (deleted regions / inserted content);
#      the randomized differential soak (ctest -L lint, scaled by
#      FTRSN_FIX_ITERS) also reruns under ASan+UBSan in step 2;
#   6. obs smoke: a traced `rsn_tool flow` run on u226 must emit a valid
#      Chrome trace-event JSON and a schema-versioned run report (v2:
#      latency histograms with monotone quantiles and exact bucket totals,
#      span-attributed memory deltas) whose stage times are consistent
#      with the reported wall time;
#   6b. obs regression gate (hardware-independent): a fresh traced p34392
#      flow is diffed against the checked-in baseline report with
#      `rsn-obs diff` over counter-exact gates (metric.mask_evals,
#      ilp.flow_*, lint.*, ...) — the counters are deterministic at any
#      thread count, so any drift is an algorithm change, not noise; the
#      gate is also proven to bite (a perturbed counter must fail), and
#      two identical-seed `rsn_tool batch` runs must diff clean, merged
#      and per-network reports alike;
#   7. clang-tidy over src/ when available (advisory unless
#      FTRSN_REQUIRE_CLANG_TIDY=1, which fails if the tool is missing and
#      turns bugprone-*/performance-* findings into hard errors).
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"

run() { echo "+ $*" >&2; "$@"; }

# --- 1. regular build + tests ----------------------------------------------
run cmake -B "$PREFIX" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
run cmake --build "$PREFIX" -j "$JOBS"
run ctest --test-dir "$PREFIX" --output-on-failure

# Differential corpus judge: every pinned network replayed through the
# packed engine at 1/2/8 threads; any digest drift fails CI with the
# network name.
run tools/judge.sh "$PREFIX"

# --- 2. sanitizer build + tests --------------------------------------------
run cmake -B "$PREFIX-asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFTRSN_SANITIZE=address,undefined
run cmake --build "$PREFIX-asan" -j "$JOBS"
run ctest --test-dir "$PREFIX-asan" --output-on-failure

# Deeper soak of the engine-vs-references / incremental-vs-from-scratch
# differential properties under the sanitizers: any disagreement or memory
# error fails CI.
FTRSN_ORACLE_ITERS="${FTRSN_ORACLE_ITERS:-300}" \
  run ctest --test-dir "$PREFIX-asan" --output-on-failure -L oracle

# Engine-vs-legacy metric equivalence under ASan+UBSan: bit-identical
# aggregates and distributions at 1/2/8 threads, sampled ITC'02 + random
# networks scaled by FTRSN_METRIC_ITERS.
FTRSN_METRIC_ITERS="${FTRSN_METRIC_ITERS:-1}" \
  run ctest --test-dir "$PREFIX-asan" --output-on-failure -L metric

# Min-cost-flow differential soak under ASan+UBSan: randomized networks,
# degree-cover instances and every ITC'02 SoC solved by both the SSP
# oracle and the cost-scaling engine (all heuristic variants) must agree
# on objective and feasibility.  Scaled by FTRSN_ILP_ITERS.
FTRSN_ILP_ITERS="${FTRSN_ILP_ITERS:-10}" \
  run ctest --test-dir "$PREFIX-asan" --output-on-failure -L ilp

# Fix-engine soak under ASan+UBSan: the randomized differential trials
# (inject defects -> repair -> SAT + fault-metric cross-check) are where
# the rewrite machinery allocates and rewires most aggressively, so any
# lifetime bug surfaces here.  Scaled by FTRSN_FIX_ITERS.
FTRSN_FIX_ITERS="${FTRSN_FIX_ITERS:-8}" \
  run ctest --test-dir "$PREFIX-asan" --output-on-failure -L lint

# Corpus replay under ASan+UBSan on the small SoCs, with the
# packed-vs-scalar cross-check forced on every replayed network: the
# packed rebase/overlay machinery indexes lane words by slot and snapshot,
# so any out-of-bounds or uninitialised read surfaces here.
FTRSN_CORPUS_SOCS=u226,d695,rand0,rand1,rand2 FTRSN_CORPUS_SCALAR=1 \
  run ctest --test-dir "$PREFIX-asan" --output-on-failure -L corpus

# Obs suite under ASan+UBSan (explicitly, beyond the full-suite run
# above): the scoped-context registry, chunked counter/histogram cell
# tables and the diff engine's JSON reader are where the observability
# layer allocates and merges across threads.
run ctest --test-dir "$PREFIX-asan" --output-on-failure -L obs

# Serve suite under ASan+UBSan (explicitly, beyond the full-suite run
# above): the result cache's single-flight handoff, the engine-thread
# teardown and the per-connection socket readers are the lifetime-heavy
# paths of the daemon.
run ctest --test-dir "$PREFIX-asan" --output-on-failure -L serve

# --- 3. TSan build of the threaded metric engine + batch runner ------------
run cmake -B "$PREFIX-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFTRSN_SANITIZE=thread
run cmake --build "$PREFIX-tsan" -j "$JOBS" \
    --target ftrsn_metric_tests ftrsn_batch_tests ftrsn_obs_tests \
             ftrsn_serve_tests
FTRSN_METRIC_ITERS="${FTRSN_METRIC_ITERS:-1}" \
  run ctest --test-dir "$PREFIX-tsan" --output-on-failure -L metric
# One small SoC keeps the end-to-end sweep fast under TSan; the nested
# scheduling tests dominate the signal anyway.
FTRSN_BATCH_SOCS="${FTRSN_BATCH_SOCS:-u226}" \
  run ctest --test-dir "$PREFIX-tsan" --output-on-failure -L batch
# Histogram concurrency and pool context propagation under TSan: the
# relaxed-atomic bucket recording and the cross-thread context attach are
# the lock-free paths of the obs layer (bucket totals are asserted
# exactly, so a lost update is a failure even without a TSan report).
run ctest --test-dir "$PREFIX-tsan" --output-on-failure -L obs \
    -R 'ObsHist|ObsContextScoping'
# Serve suite under TSan: transport threads, the engine thread and the
# pool workers all meet on the cache's flight mutex and the coalescing
# cv handoff; the counter-asserted tests make a lost wakeup or a data
# race a deterministic failure, and TSan names the race when one exists.
run ctest --test-dir "$PREFIX-tsan" --output-on-failure -L serve

# --- 4. fault-metric bench smoke -------------------------------------------
# Small SoC, legacy baseline on: the emitted JSON must parse, carry the
# expected schema, and report aggregates_identical on every run.
BENCH_JSON="$PREFIX/BENCH_fault_metric.smoke.json"
FTRSN_SOCS=u226 FTRSN_BENCH_OUT="$BENCH_JSON" \
  run "$PREFIX/bench/bench_fault_metric"
if command -v python3 >/dev/null 2>&1; then
  run python3 - "$BENCH_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "fault_metric", "bench tag"
nets = doc["networks"]
assert nets, "no networks"
for net in nets:
    for key in ("soc", "network", "nodes", "faults", "classes",
                "collapse_ratio", "legacy_seconds", "scalar_seconds",
                "scalar_mask_evals", "scalar_identical", "mask_evals_ratio",
                "runs", "thread_scaling_8v1"):
        assert key in net, f"missing {key}"
    assert net["faults"] >= net["classes"] > 0, "collapse counts"
    assert [r["threads"] for r in net["runs"]] == [1, 2, 8], "thread sweep"
    for r in net["runs"]:
        assert r["seconds"] >= 0 and r["faults_per_second"] > 0, "throughput"
        assert r["aggregates_identical"] is True, \
            f"engine/legacy mismatch on {net['soc']}-{net['network']}"
        # Packed lane accounting is hardware-independent: every mask eval
        # is a packed word eval, occupancy is a real fraction, and a SIMD
        # kernel was dispatched.
        assert r["packed_words"] == r["mask_evals"] > 0, "packed words"
        assert 0.0 < r["lane_utilization"] <= 1.0, "lane utilization"
        assert r["simd_kernel"], "no simd kernel recorded"
    # The bit-parallel lever itself (also hardware-independent): the packed
    # engine must do several-fold fewer mask evals than the scalar engine
    # on the same network — the counts are deterministic, so a regression
    # here means the lane packing stopped paying, not noise.
    assert net["scalar_identical"] is True, \
        f"packed/scalar mismatch on {net['soc']}-{net['network']}"
    assert net["mask_evals_ratio"] > 3.0, \
        f"bit-parallel lever regressed on {net['soc']}: {net['mask_evals_ratio']}"
# Intra-network scaling: the fault-class loop of the largest FT network
# must speed up meaningfully 8-vs-1.  Only meaningful with real cores —
# on small runners the ratio is pinned near 1.0 by hardware.
if doc["hardware_threads"] >= 8:
    big = max((n for n in nets if n["network"] == "ft"),
              key=lambda n: n["classes"])
    assert big["thread_scaling_8v1"] > 1.5, \
        f"flat scaling on {big['soc']}: {big['thread_scaling_8v1']}"
print("bench schema ok:", sys.argv[1])
EOF
else
  grep -q '"bench": "fault_metric"' "$BENCH_JSON"
  if grep -q '"aggregates_identical": false' "$BENCH_JSON"; then
    echo "bench smoke: aggregates mismatch" >&2; exit 1
  fi
  if grep -q '"scalar_identical": false' "$BENCH_JSON"; then
    echo "bench smoke: packed/scalar mismatch" >&2; exit 1
  fi
fi

# Batch flow runner smoke: the sharded sweep must reproduce the serial
# sweep bit for bit at every thread count.  Two small SoCs keep it quick.
BATCH_JSON="$PREFIX/BENCH_batch_flow.smoke.json"
FTRSN_SOCS=u226,d281 FTRSN_BENCH_OUT="$BATCH_JSON" \
  run "$PREFIX/bench/bench_batch_flow"
if command -v python3 >/dev/null 2>&1; then
  run python3 - "$BATCH_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "batch_flow", "bench tag"
assert doc["serial_seconds"] > 0, "serial baseline"
assert doc["socs"], "no socs"
runs = doc["runs"]
assert [r["threads"] for r in runs] == [1, 2, 8], "thread sweep"
for r in runs:
    assert r["seconds"] > 0, "run time"
    assert r["aggregates_identical"] is True, \
        f"batch/serial mismatch at {r['threads']} threads"
    socs = {s["soc"] for s in r["socs"] if s["identical"]}
    assert socs == set(doc["socs"]), f"per-soc mismatch at {r['threads']}"
# Wall-clock scaling needs real cores; on small runners the sharded run
# only measures scheduling overhead, so the speedup gate is skipped.
if doc["hardware_threads"] >= 8:
    assert runs[-1]["speedup"] > 1.5, f"no batch speedup: {runs[-1]}"
print("batch bench schema ok:", sys.argv[1])
EOF
else
  grep -q '"bench": "batch_flow"' "$BATCH_JSON"
  if grep -q '"identical": false' "$BATCH_JSON"; then
    echo "batch bench smoke: aggregates mismatch" >&2; exit 1
  fi
fi

# --- 4b. serve bench smoke + daemon smoke -----------------------------------
# A reduced storm keeps the smoke quick; every asserted gate is
# hardware-independent (cache counters and byte comparisons), so this is
# meaningful on any runner.  The same validation then runs over the
# checked-in BENCH_serve.json so the committed envelope can never drift
# out of contract silently.
SERVE_WORK="$PREFIX/serve-smoke"
mkdir -p "$SERVE_WORK"
SERVE_JSON="$PREFIX/BENCH_serve.smoke.json"
FTRSN_SERVE_REQUESTS=300 FTRSN_BENCH_OUT="$SERVE_JSON" \
  run "$PREFIX/bench/bench_serve"
if command -v python3 >/dev/null 2>&1; then
  run python3 - "$SERVE_JSON" BENCH_serve.json <<'EOF'
import json, sys
for path in sys.argv[1:]:
    doc = json.load(open(path))
    assert doc["schema"] == "ftrsn-bench-1", "schema tag"
    assert doc["bench"] == "serve", "bench tag"
    storm = doc["storm"]
    assert storm["hits"] + storm["misses"] > 0, "empty storm"
    assert storm["hit_rate"] > 0.5, f"hit rate too low: {storm['hit_rate']}"
    assert 0 <= storm["p50_us"] <= storm["p99_us"] <= storm["max_us"], \
        "latency percentiles not monotone"
    assert doc["coalesce"]["coalesced"] > 0, "no single-flight coalescing"
    assert doc["eviction"]["evictions"] > 0, "tiny budget evicted nothing"
    assert doc["repeat_identical"] is True, \
        "warm results not byte-identical to a cold service"
    counters = doc["obs_counters"]
    assert counters.get("serve.coalesced", 0) > 0, "serve.coalesced counter"
    assert counters.get("serve.cache_hits", 0) > storm["misses"], \
        "cache hits did not dominate"
    hist = doc["histograms"]["serve.request_us"]
    assert hist["count"] >= storm["hits"] + storm["misses"], \
        "request histogram undercounts"
    print("serve bench ok:", path,
          f"(hit rate {storm['hit_rate']:.3f}, "
          f"coalesced {doc['coalesce']['coalesced']})")
EOF

  # Daemon smoke: a real `rsn_tool serve` process on an ephemeral port,
  # driven through a scripted client session (tools/serve_client.py) that
  # counter-asserts cache hits and byte-identical repeated answers over
  # the socket, then shuts the daemon down cleanly from the client side.
  run "$PREFIX/examples/example_rsn_tool" gen u226 "$SERVE_WORK/u226.rsn" \
    >/dev/null
  SERVE_PORT_FILE="$SERVE_WORK/serve.port"
  rm -f "$SERVE_PORT_FILE"
  "$PREFIX/examples/example_rsn_tool" serve --port=0 \
    --port-file="$SERVE_PORT_FILE" > "$SERVE_WORK/serve.log" 2>&1 &
  SERVE_PID=$!
  if ! run python3 tools/serve_client.py --port-file="$SERVE_PORT_FILE" \
      --rsn="$SERVE_WORK/u226.rsn" --shutdown; then
    kill "$SERVE_PID" 2>/dev/null || true
    echo "serve smoke: client session failed; daemon log:" >&2
    cat "$SERVE_WORK/serve.log" >&2
    exit 1
  fi
  if ! wait "$SERVE_PID"; then
    echo "serve smoke: daemon exited non-zero; log:" >&2
    cat "$SERVE_WORK/serve.log" >&2
    exit 1
  fi
else
  grep -q '"bench": "serve"' "$SERVE_JSON"
  if grep -q '"repeat_identical": false' "$SERVE_JSON"; then
    echo "serve bench smoke: warm/cold mismatch" >&2; exit 1
  fi
fi

# --- 4c. augment-scaling bench smoke ----------------------------------------
# Small synthetic instances keep the smoke fast; the assertions are on
# deterministic work counters, not wall time, so they hold on any host.
SCALE_JSON="$PREFIX/BENCH_augment_scaling.smoke.json"
FTRSN_SCALE_TARGETS=800,2000 FTRSN_SCALE_SSP_MAX=2000 \
  FTRSN_BENCH_OUT="$SCALE_JSON" \
  run "$PREFIX/bench/bench_augment_scaling"
if command -v python3 >/dev/null 2>&1; then
  run python3 - "$SCALE_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "ftrsn-bench-1", "schema tag"
assert doc["bench"] == "augment_scaling", "bench tag"
insts = doc["instances"]
assert insts, "no instances"
for inst in insts:
    for key in ("target", "elements", "replicas", "vertices", "candidates",
                "cost", "edges", "bb_nodes", "cs_seconds", "cs_pushes",
                "cs_relabels", "ssp_ran", "ssp_work", "work_ratio"):
        assert key in inst, f"missing {key}"
    assert inst["elements"] > 0 and inst["vertices"] > inst["elements"]
    assert inst["cost"] > 0 and inst["edges"] > 0, "no augmentation"
    assert inst["cs_pushes"] + inst["cs_relabels"] > 0, "engine did no work"
    if inst["ssp_ran"]:
        # The bench itself FTRSN_CHECKs cost equality; re-assert from the
        # payload so a silent format change cannot mask a drift.
        assert inst["cost_match"] is True, f"engine drift at {inst['target']}"
        assert inst["ssp_work"] > 0, "oracle did no work"
# Hardware-independent speedup lever: deterministic SSP work over
# deterministic cost-scaling work on the largest instance both ran.
assert doc["largest_common_elements"] > 0, "no common instance"
assert doc["work_ratio_largest_common"] > 3.0, \
    f"work ratio regressed: {doc['work_ratio_largest_common']}"
print("augment scaling bench ok:", sys.argv[1],
      f"(ratio {doc['work_ratio_largest_common']:.0f}x)")
EOF
else
  grep -q '"bench": "augment_scaling"' "$SCALE_JSON"
  if grep -q '"cost_match": false' "$SCALE_JSON"; then
    echo "augment scaling smoke: engine cost mismatch" >&2; exit 1
  fi
fi

# --- 5. rsn-lint over example networks -------------------------------------
TOOL="$PREFIX/examples/example_rsn_tool"
LINT="$PREFIX/examples/example_rsn_lint"
WORK="$PREFIX/lint-networks"
mkdir -p "$WORK"

for soc in g1023 d281 u226; do
  run "$TOOL" gen "$soc" "$WORK/$soc.rsn" >/dev/null
  run "$LINT" "$WORK/$soc.rsn"
done

# Synthesized fault-tolerant networks must also be clean, including under
# the post-synthesis fault-tolerance profile (--ft).
for soc in g1023 d281; do
  run "$TOOL" synth "$WORK/$soc.rsn" "$WORK/$soc-ft.rsn" >/dev/null
  run "$LINT" --ft --lint-stats "$WORK/$soc-ft.rsn"
done

# The machine-readable emitters stay parseable.
run "$LINT" --json "$WORK/g1023.rsn" >/dev/null
run "$LINT" --sarif "$WORK/g1023.rsn" > "$WORK/g1023.sarif"
if command -v python3 >/dev/null 2>&1; then
  run python3 - "$WORK/g1023.sarif" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == "2.1.0", "sarif version"
assert doc["runs"][0]["tool"]["driver"]["name"] == "rsn-lint", "driver"
print("sarif ok:", sys.argv[1])
EOF
fi

# --- 5b. fix-engine smoke ---------------------------------------------------
# A small network with one of every fixable defect: an unused primary-in,
# a mux with identical inputs, a constant-address mux, and a dead segment.
BROKEN="$WORK/broken.rsn"
cat > "$BROKEN" <<'EOF'
rsn
decl_in SI
decl_in SI_unused
decl_seg A len=2 shadow=1 role=instr
decl_seg B len=1 shadow=0 role=instr
decl_seg DEAD len=1 shadow=0 role=instr
decl_mux M_ID
decl_mux M_CONST
decl_out SO
in SI
in SI_unused
seg A len=2 shadow=1 rep=1 reset=0 role=instr mod=0 lvl=1 in=SI sel=1 cap=0 upd=0
mux M_ID mod=0 lvl=1 in0=A in1=A addr=@A.0.0
seg B len=1 shadow=0 rep=1 reset=0 role=instr mod=0 lvl=1 in=M_ID sel=1 cap=0 upd=0
mux M_CONST mod=0 lvl=1 in0=B in1=DEAD addr=0
seg DEAD len=1 shadow=0 rep=1 reset=0 role=instr mod=0 lvl=1 in=SI sel=1 cap=0 upd=0
out SO in=M_CONST
EOF
cp "$BROKEN" "$WORK/broken.orig.rsn"

# Dry-run must report the repairs without touching the input file.
run "$LINT" --fix-dry-run "$BROKEN"
run cmp "$BROKEN" "$WORK/broken.orig.rsn"

# SARIF in fix mode carries the original findings plus machine-applicable
# fix records; validate their shape.
run "$LINT" --fix-dry-run --sarif "$BROKEN" > "$WORK/broken.sarif"
run cmp "$BROKEN" "$WORK/broken.orig.rsn"
if command -v python3 >/dev/null 2>&1; then
  run python3 - "$WORK/broken.sarif" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == "2.1.0", "sarif version"
results = doc["runs"][0]["results"]
fixed = [r for r in results if r.get("fixes")]
assert fixed, "no fix records in fix-mode sarif"
edits = 0
for r in fixed:
    for fix in r["fixes"]:
        assert fix["description"]["text"], "fix description"
        for ch in fix["artifactChanges"]:
            assert "uri" in ch["artifactLocation"], "artifact uri"
            assert ch["replacements"], "empty replacements"
            for rep in ch["replacements"]:
                region = rep["deletedRegion"]
                for key in ("startLine", "startColumn", "endLine", "endColumn"):
                    assert key in region, f"missing {key}"
                assert region["endLine"] > region["startLine"], "empty region"
                edits += 1
assert edits >= 3, f"expected several fix edits, got {edits}"
print("sarif fix records ok:", sys.argv[1], f"({edits} edits)")
EOF
fi

# Applying the fixes must rewrite the file to a lint-clean fixpoint:
# rerunning --fix on the repaired network is a no-op and plain lint passes.
run "$LINT" --fix "$BROKEN"
if cmp -s "$BROKEN" "$WORK/broken.orig.rsn"; then
  echo "fix smoke: --fix left a broken network unchanged" >&2; exit 1
fi
cp "$BROKEN" "$WORK/broken.fixed.rsn"
run "$LINT" --fix "$BROKEN"
run cmp "$BROKEN" "$WORK/broken.fixed.rsn"
run "$LINT" "$BROKEN"

# The metric-differential verification tier must agree with the SAT tier
# on this fixture.
cp "$WORK/broken.orig.rsn" "$BROKEN"
run "$LINT" --fix --fix-verify=metric "$BROKEN"
run cmp "$BROKEN" "$WORK/broken.fixed.rsn"

# --- 6. obs smoke: traced flow run -----------------------------------------
# One end-to-end flow with tracing, reporting and a BMC spot-check: both
# emitted JSON documents must parse and respect their schemas, and the
# report's stage breakdown must stay consistent with its wall time.
OBS_TRACE="$WORK/u226_trace.json"
OBS_REPORT="$WORK/u226_report.json"
# --threads=2 forces a multi-threaded metric pool even on 1-CPU runners so
# the trace always carries worker lanes.
run "$TOOL" flow u226 --trace="$OBS_TRACE" --report="$OBS_REPORT" \
  --bmc-check=4 --threads=2 >/dev/null
if command -v python3 >/dev/null 2>&1; then
  run python3 - "$OBS_TRACE" "$OBS_REPORT" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
names = {e["name"] for e in events if e.get("ph") == "X"}
for stage in ("flow.parse", "flow.synth", "flow.metric.original",
              "flow.metric.hardened", "flow.bmc", "synth.augment",
              "bmc.check"):
    assert stage in names, f"missing trace span {stage}"
lanes = {e["tid"] for e in events if e.get("ph") == "X"}
assert len(lanes) > 1, "no worker lanes in trace"
for e in events:
    if e.get("ph") == "X":
        assert e["dur"] >= 0 and e["ts"] >= 0, "bad event timestamps"

report = json.load(open(sys.argv[2]))
assert report["schema"] == "ftrsn-run-report", "report schema"
assert report["version"] == 2, "report version"
wall = report["wall_seconds"]
stages = {s["name"]: s["seconds"] for s in report["stages"]}
for stage in ("flow.parse", "flow.synth", "flow.bmc"):
    assert stage in stages, f"missing report stage {stage}"
total = report["stages_total_seconds"]
# The flow spends essentially all its time inside instrumented stages, so
# the stage sum must agree with the wall time to within 10%.
assert wall * 0.90 <= total <= wall * 1.10, \
    f"stage sum {total} vs wall {wall}"
assert report["counters"].get("bmc.sat_calls", 0) > 0, "bmc counters"
assert report["counters"].get("metric.faults", 0) > 0, "metric counters"
assert report["machine"]["peak_rss_kb"] > 0, "peak rss"

# v2 additions: latency histograms (per span family plus the explicit
# hot-path ones) with exact bucket totals and monotone quantiles, and
# span-attributed memory accounting.
hists = {h["name"]: h for h in report["histograms"]}
for name in ("flow.synth", "metric.packed_batch_us", "ilp.solve_us"):
    assert name in hists, f"missing histogram {name}"
for name, h in hists.items():
    assert h["count"] > 0, f"empty histogram emitted: {name}"
    assert h["p50"] <= h["p90"] <= h["p99"] <= h["max"], \
        f"quantiles not monotone: {name}"
    assert sum(c for _, c in h["buckets"]) == h["count"], \
        f"bucket totals != count: {name}"
    for lo, c in h["buckets"]:
        assert lo >= 0 and c > 0, f"bad bucket in {name}"
mem = report["mem"]
assert mem["peak_rss_kb"] > 0 and mem["current_rss_kb"] > 0, "mem rss"
mem_spans = {s["name"]: s for s in mem["spans"]}
assert "flow.synth" in mem_spans, "missing mem attribution for flow.synth"
for s in mem_spans.values():
    assert s["count"] > 0, "mem span count"
    for key in ("rss_delta_kb", "rss_delta_max_kb", "peak_delta_kb"):
        assert key in s, f"missing {key}"  # deltas may legitimately be < 0
print("obs smoke ok:", sys.argv[1], sys.argv[2])
EOF
else
  grep -q '"traceEvents"' "$OBS_TRACE"
  grep -q '"schema": "ftrsn-run-report"' "$OBS_REPORT"
fi

# --- 6b. obs regression gate (rsn-obs diff) ---------------------------------
# The gate counters are deterministic algorithm counts — identical at any
# thread count and on any hardware — so they are compared exactly; timing
# (histogram quantiles, wall clock) is deliberately excluded.
RSNOBS="$PREFIX/examples/example_rsn_obs"
OBS_BASELINE="tests/data/obs_baseline_p34392.json"
OBS_GATES='metric.mask_evals,metric.classes,metric.faults'
OBS_GATES="$OBS_GATES,metric.packed_batches,metric.packed_words"
OBS_GATES="$OBS_GATES,ilp.flow_*,ilp.lp_solves,augment.*,lint.*"

OBS_FRESH="$WORK/p34392_report.json"
run "$TOOL" flow p34392 --report="$OBS_FRESH" --threads=2 >/dev/null
if ! run "$RSNOBS" diff "$OBS_BASELINE" "$OBS_FRESH" --counters="$OBS_GATES"
then
  echo "obs regression gate: gate counters drifted from $OBS_BASELINE" >&2
  echo "if the algorithm change is intentional, regenerate the baseline:" >&2
  echo "  $TOOL flow p34392 --report=$OBS_BASELINE --threads=2" >&2
  exit 1
fi

# The gate must bite: a perturbed counter fails the diff with exit 1.
OBS_PERT="$WORK/p34392_perturbed.json"
sed 's/"metric.mask_evals": \([0-9]*\)/"metric.mask_evals": 1\1/' \
  "$OBS_FRESH" > "$OBS_PERT"
if "$RSNOBS" diff "$OBS_BASELINE" "$OBS_PERT" --counters="$OBS_GATES" \
  > /dev/null
then
  echo "obs regression gate: perturbed metric.mask_evals not detected" >&2
  exit 1
fi

# Two identical batch runs must agree counter-exactly — on the merged
# parent report and on every per-network child report (each flow runs in
# its own obs context; the parent counters are the child sums).
BATCH_A="$WORK/batch_run_a.json"
BATCH_B="$WORK/batch_run_b.json"
run "$TOOL" batch u226,d281 --report="$BATCH_A" --threads=2 >/dev/null
run "$TOOL" batch u226,d281 --report="$BATCH_B" --threads=2 >/dev/null
run "$RSNOBS" diff "$BATCH_A" "$BATCH_B" --counters="$OBS_GATES"
for soc in u226 d281; do
  for f in "$WORK/batch_run_a.$soc.json" "$WORK/batch_run_b.$soc.json"; do
    if [ ! -s "$f" ]; then
      echo "obs regression gate: missing per-network report $f" >&2
      exit 1
    fi
  done
  run "$RSNOBS" diff "$WORK/batch_run_a.$soc.json" \
    "$WORK/batch_run_b.$soc.json" --counters="$OBS_GATES"
done

# rsn-obs top must rank the fresh report without error.
run "$RSNOBS" top "$OBS_FRESH" --limit=10 >/dev/null

# --- 7. clang-tidy ----------------------------------------------------------
# Advisory locally; the GitHub workflow sets FTRSN_REQUIRE_CLANG_TIDY=1,
# which makes a missing tool a hard failure and promotes the bugprone-*
# and performance-* families to errors (--warnings-as-errors widens the
# gate beyond the .clang-tidy WarningsAsErrors baseline).
if command -v clang-tidy >/dev/null 2>&1; then
  run cmake -B "$PREFIX" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  if [ "${FTRSN_REQUIRE_CLANG_TIDY:-0}" = "1" ]; then
    find src -name '*.cpp' -print0 |
      xargs -0 -n 8 -P "$JOBS" clang-tidy -p "$PREFIX" --quiet \
        --warnings-as-errors='bugprone-*,performance-*'
  else
    find src -name '*.cpp' -print0 |
      xargs -0 -n 8 -P "$JOBS" clang-tidy -p "$PREFIX" --quiet || true
  fi
elif [ "${FTRSN_REQUIRE_CLANG_TIDY:-0}" = "1" ]; then
  echo "clang-tidy required (FTRSN_REQUIRE_CLANG_TIDY=1) but not found" >&2
  exit 1
else
  echo "clang-tidy not found; skipping (advisory)" >&2
fi

echo "ci: all checks passed" >&2
