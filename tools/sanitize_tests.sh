#!/usr/bin/env bash
# Run the full tier-1 test suite under one sanitizer.
#
# Configures a dedicated build tree with -DDATANET_SANITIZE=<sanitizer>,
# builds everything, and runs ctest:
#
#   address   -> build-asan/   corrupt/truncated journal and image inputs
#                              and the fault-injection paths stay
#                              memory-clean (no overflow, no use-after-free,
#                              no leak);
#   thread    -> build-tsan/   the parallel MapReduce engine and the
#                              SelectionRuntime's thread-count invariance:
#                              the straggler tests run the same faulted
#                              selection at 1 and N engine threads;
#   undefined -> build-ubsan/  the recovery/durability deserializers: torn
#                              edit-log frames and bit-flipped FsImages must
#                              not provoke misaligned loads, shift overflows
#                              or bad enum casts.
#
# Each report fails the test instead of just printing (abort_on_error /
# halt_on_error); ASan also detects leaks on the deserializer paths.
#
# Usage: tools/sanitize_tests.sh address|thread|undefined [extra ctest args...]
set -euo pipefail

usage() {
  echo "usage: $0 address|thread|undefined [extra ctest args...]" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
sanitizer="$1"
shift

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
case "${sanitizer}" in
  address)
    build_dir="${repo_root}/build-asan"
    options=(ASAN_OPTIONS "abort_on_error=1:detect_leaks=1")
    ;;
  thread)
    build_dir="${repo_root}/build-tsan"
    options=(TSAN_OPTIONS "halt_on_error=1:second_deadlock_stack=1")
    ;;
  undefined)
    build_dir="${repo_root}/build-ubsan"
    options=(UBSAN_OPTIONS "halt_on_error=1:print_stacktrace=1")
    ;;
  *)
    usage
    ;;
esac

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDATANET_SANITIZE="${sanitizer}"
cmake --build "${build_dir}" -j "$(nproc)"

export "${options[0]}=${options[1]}"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" "$@"
