#!/usr/bin/env bash
# Builds and runs ctest under every preset of the verification matrix, or
# the subset named on the command line:
#
#   scripts/check.sh                 # release, asan-ubsan, avx2, tsan
#   scripts/check.sh asan-ubsan      # one preset
#
# Environment:
#   DNLR_JOBS       parallel build/test jobs (default: nproc)
#   DNLR_TEST_ARGS  extra ctest arguments, e.g. "-L sanitizer-clean"
#
# See the "Verification matrix" section of DESIGN.md.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(release asan-ubsan avx2 tsan)
fi
jobs="${DNLR_JOBS:-$(nproc)}"

for preset in "${presets[@]}"; do
  echo "==== [${preset}] configure"
  cmake --preset "${preset}"
  echo "==== [${preset}] build"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==== [${preset}] test"
  # shellcheck disable=SC2086  # DNLR_TEST_ARGS is intentionally word-split.
  ctest --preset "${preset}" -j "${jobs}" ${DNLR_TEST_ARGS:-}
  echo "==== [${preset}] OK"
done
echo "verification matrix passed: ${presets[*]}"
