#!/usr/bin/env bash
# Differential corpus judge for the fault-metric engine.
#
# Replays the SHA-pinned golden corpus (tests/test_corpus.cpp): full
# metric sweeps over every ITC'02 SoC (original + fault-tolerant), the
# fixed-seed random RSNs and two fixed-seed scale_soc networks (u226 and
# p93791 templates, ~2k scan elements), digested to SHA-256 and compared
# against tests/data/corpus/manifest.sha256.  Packed 64-lane digests
# must agree at 1/2/8 threads and match the pin; the cheap networks are
# additionally cross-checked against the scalar engine on every replay.
#
# Usage:
#   tools/judge.sh [build-dir]        replay the pinned corpus (default
#                                     build dir: build)
#   FTRSN_REGOLD=1 tools/judge.sh     regenerate the manifest (every
#                                     network is scalar cross-checked
#                                     before its digest is pinned)
#   FTRSN_CORPUS_SOCS=u226,d695 ...   subset replay by base name (u226,
#                                     rand0, scale-u226, ...; sanitizer runs)
#   FTRSN_CORPUS_SCALAR=1 ...         scalar cross-check on every network
#   FTRSN_SIMD=scalar|unrolled|...    pin the SIMD kernel under judgment
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

run() { echo "+ $*" >&2; "$@"; }

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  run cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
run cmake --build "$BUILD" -j "$JOBS" --target ftrsn_corpus_tests
run "$BUILD/tests/ftrsn_corpus_tests"

if [ "${FTRSN_REGOLD:-0}" = "1" ]; then
  echo "judge: manifest regenerated -> tests/data/corpus/manifest.sha256" >&2
  echo "judge: review and commit the diff" >&2
else
  echo "judge: corpus digests match the pinned manifest" >&2
fi
