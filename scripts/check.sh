#!/usr/bin/env bash
# Full local gate: tier-1 build + tests, the sanitizer suites, and the perf
# smoke runs.  Everything a PR must keep green, in one command:
#
#   scripts/check.sh            # tier-1 + warp + asan + tsan + ubsan + perf
#   scripts/check.sh --fast     # tier-1 only
#
# Build trees: build/ (tier-1), build-asan/, build-tsan/, build-ubsan/.
# Sanitizer trees skip bench and examples — the sanitized test binaries are
# the point.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc)
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

step() { printf '\n=== %s ===\n' "$*"; }

step "static: no deprecated shims"
# The bool/exception shims were removed once their callers migrated to the
# try_*/Expected surface; nothing may reintroduce the marker.
if grep -rn "Deprecated shim" src/; then
  echo "error: deprecated shim marker found in src/ (migrate callers instead)"
  exit 1
fi
echo "no deprecated shims"

step "static: one pricing path"
# Every modeled device second comes from gpu::TimingModel through
# gpu::Device; only the timing model and the spec catalog read the spec's
# rates.  A hand-copied roofline or a made-up rate constant fails here.
if grep -rnE 'peak_flops\(\)|peak_bytes_per_s\(\)|pcie_bytes_per_s\(\)|launch_overhead_us|5e9' \
    src --include=*.cpp | grep -vE '^src/gpusim/(timing|device_spec)\.cpp:'; then
  echo "error: device time computed outside gpu::TimingModel (route it through Device::charge_kernel or a TimingModel method)"
  exit 1
fi
echo "one pricing path"

step "static: configuration is code"
# Settings are API fields, not environment variables: only the worker pool
# size, the warp-fidelity lab mode and the fault lab read the environment.
# And no build flag may trade the bit-identity contract (ascending-k mul-add
# chains) for speed.
if grep -rln getenv src |
    grep -vxE 'src/(runtime/(scheduler|fault)|gpusim/warp)\.cpp'; then
  echo "error: new environment reader in src/ (add an API field instead)"
  exit 1
fi
if grep -rnE --include=CMakeLists.txt -e '-ffast-math|-march=native' .; then
  echo "error: -ffast-math / -march=native in a CMakeLists.txt (breaks bit-identity)"
  exit 1
fi
echo "configuration is code"

step "static: one fork/join loop"
# Host kernels fork/join only through gpu::Executor::parallel_for (on
# compute::executor()); a second helper-task claim loop in the kernel
# layers fails here.
if grep -rnE 'submit_any|scheduler\(\)|condition_variable' \
    src/compute src/tensor src/graph/spmm.cpp; then
  echo "error: helper-task loop in a host kernel layer (use compute::executor().parallel_for)"
  exit 1
fi
echo "one fork/join loop"

step "static: no tuner"
# Tile sizes are the kernels' constants and the HNSW beam is a parameter.
# compute/autotuner.hpp survives only for perfbench's two zero counters, so
# nothing else may include it, and no tune cache may come back.
if grep -rnE '#include "compute/autotuner\.hpp"|SAGESIM_TUNE_CACHE' src bench examples tests; then
  echo "error: tuner include or tune-cache variable (tile sizes are constants)"
  exit 1
fi
echo "no tuner"

step "static: no test-only modules"
# Every header under src/ must be included by library code other than its
# own .cpp, or by a bench, example or perfbench; a module only tests reach
# is wired into a lab or deleted.  Three stay on purpose:
#   core/jobs.hpp          the only code that runs course workloads through sched
#   dataframe/csv.hpp      an on-disk format that the corruption sweep hardens
#   prof/chrome_trace.hpp  the base of the planned trace export
orphans=0
for hdr in $(cd src && find . -name '*.hpp' | sed 's|^\./||' | sort); do
  case "$hdr" in core/jobs.hpp|dataframe/csv.hpp|prof/chrome_trace.hpp) continue ;; esac
  users=$(grep -rlF "#include \"$hdr\"" src bench examples perfbench |
          grep -vxF "src/${hdr%.hpp}.cpp" || true)
  if [[ -z "$users" ]]; then
    echo "error: src/$hdr is included only by tests or its own .cpp (wire it into a lab or delete it)"
    orphans=1
  fi
done
[[ "$orphans" == 0 ]] || exit 1
echo "no test-only modules"

step "tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

step "tier-1: ctest"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "$FAST" == 1 ]]; then
  echo "--fast: skipping sanitizer suites"
  exit 0
fi

step "warp: per-thread kernel bodies under the bit-identity suites"
# Analytic launches compute on the host engines; these re-run the core,
# fault, compute, graph-pipeline and DDP suites with warp fidelity as the
# process default, so the per-thread bodies meet the same assertions.
ctest --test-dir build --output-on-failure -L warp

step "asan: build + asan.* suite"
cmake -B build-asan -S . -DSAGESIM_SANITIZE=address \
  -DSAGESIM_BUILD_BENCH=OFF -DSAGESIM_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -L asan

step "tsan: build + tsan.* suite, 5 runs each"
# A race shows up on some interleavings only, so every suite runs 5 times.
cmake -B build-tsan -S . -DSAGESIM_SANITIZE=thread \
  -DSAGESIM_BUILD_BENCH=OFF -DSAGESIM_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -L tsan --repeat until-fail:5

step "ubsan: build + ubsan.* suite"
cmake -B build-ubsan -S . -DSAGESIM_SANITIZE=undefined \
  -DSAGESIM_BUILD_BENCH=OFF -DSAGESIM_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-ubsan -j "$JOBS"
ctest --test-dir build-ubsan --output-on-failure -L ubsan

step "perf: microbench smoke"
ctest --test-dir build --output-on-failure -L perf

step "perf: multi-worker kernel smoke"
# Exercise the GEMM and SpMM parallel_for loops on an oversubscribed pool
# (worker count beyond SAGESIM_WORKERS and likely beyond the core count) —
# bit-identity and completion are the assertions here, not speed.
SAGESIM_WORKERS=4 ./build/bench/microbench_gemm --smoke --workers 1,4 \
  --json /dev/null >/dev/null
SAGESIM_WORKERS=4 ./build/bench/microbench_spmm --smoke --workers 1,4 \
  --json /dev/null >/dev/null
echo "multi-worker smoke ok"

step "perf: rag serving smoke"
# The serving path end to end — batcher, caches, open-loop harness — on a
# 4-worker pool (the configuration the SLO claim is stated at).
./build/bench/serve_rag --smoke --workers 4 --json /dev/null >/dev/null
echo "rag serving smoke ok"

step "perf: out-of-core sampling smoke"
# Sharded generation, sampler, and both staging configs end to end on a
# small graph; asserts prefetch on/off losses stay bit-identical.
./build/bench/microbench_sampling --smoke --json /dev/null >/dev/null
echo "out-of-core sampling smoke ok"

step "perf: warp-fidelity smoke"
# The warp-granular model's gates: coalesced vs stride-32 transactions
# (4 vs 32 per request), strided modeled time >= 4x coalesced with
# bit-identical results, bank-conflict replays linear in the conflict
# degree, and the occupancy limiter flipping to "registers".  The binary
# exits nonzero on any gate violation.
./build/bench/microbench_warp --smoke --json /dev/null >/dev/null
echo "warp-fidelity smoke ok (coalesced >=4x stride-32, bit-identical)"

step "perf: scheduler smoke"
# A 200-tenant mini-semester through the fair-share control plane: the
# binary exits nonzero on any lost job, incomplete admitted job, or tenant
# over its budget cap.
./build/bench/bench_semester --smoke --json /dev/null >/dev/null
echo "scheduler smoke ok (200-tenant mini-semester, zero lost jobs)"

echo
echo "all checks passed"
