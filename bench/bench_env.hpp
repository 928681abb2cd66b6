// Shared bench-process plumbing: the truthful build-type stamp and the
// baseline guard.
//
// Every exported bench JSON carries two build-type facts. google/benchmark's
// own `library_build_type` context key describes how the BENCHMARK LIBRARY
// was compiled — on Debian that is "debug", baked into the .so, and nothing
// this repo configures can change it. `crooks_build_type` (added here from
// the CMAKE_BUILD_TYPE this translation unit was actually compiled with)
// describes how OUR code was compiled — the fact that matters for whether a
// number is a real baseline. tools/bench_diff.py --forbid-debug gates on it.
//
// When CROOKS_BENCH_BASELINE is set in the environment (set it when
// regenerating a committed BENCH_*.json), a non-optimized build aborts
// up front: recording a Debug baseline silently is the failure mode that
// motivated this file.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#ifndef CROOKS_BUILD_TYPE
#define CROOKS_BUILD_TYPE "unknown"
#endif

namespace crooks::benchx {

inline bool optimized_build() {
  return std::strcmp(CROOKS_BUILD_TYPE, "Release") == 0 ||
         std::strcmp(CROOKS_BUILD_TYPE, "RelWithDebInfo") == 0 ||
         std::strcmp(CROOKS_BUILD_TYPE, "MinSizeRel") == 0;
}

/// Idempotent; registered automatically below, callable explicitly too.
inline void stamp_build_type() {
  static const bool once = [] {
    benchmark::AddCustomContext("crooks_build_type", CROOKS_BUILD_TYPE);
    if (std::getenv("CROOKS_BENCH_BASELINE") != nullptr && !optimized_build()) {
      std::fprintf(stderr,
                   "refusing to record a baseline from a '%s' build "
                   "(CROOKS_BENCH_BASELINE is set; configure with "
                   "-DCMAKE_BUILD_TYPE=Release)\n",
                   CROOKS_BUILD_TYPE);
      std::abort();
    }
    return true;
  }();
  (void)once;
}

namespace internal {
// Every bench TU gets this header force-included (see bench/CMakeLists.txt),
// so the stamp lands in every exported JSON without each main() opting in.
// AddCustomContext only stores into a map; calling it before
// benchmark::Initialize is safe.
inline const bool kStamped = (stamp_build_type(), true);
}  // namespace internal

}  // namespace crooks::benchx
