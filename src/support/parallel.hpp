// OpenMP-backed parallel loop helpers.
//
// All data-parallel kernels in the library funnel through parallel_for so
// that builds without OpenMP degrade gracefully to serial execution and
// the grain-size policy lives in one place.  Loop bodies must be free of
// cross-iteration dependences; reductions go through parallel_reduce.
//
// Grain policy
// ------------
// `grain` is the minimum trip count at which a loop is worth forking an
// OpenMP region; below it the loop runs serially on the calling thread.
// Entering a parallel region costs on the order of 10k-100k scalar ops
// (thread wake-up + barrier), so a loop should only fork when the total
// work comfortably exceeds that.  Callers that know their per-iteration
// cost must derive the grain with `grain_for_cost(ops_per_iteration)`
// rather than hard-coding it: a batched SpMM whose iterations each touch
// nnz(W) entries passes grain_for_cost(nnz), which yields grain == 1 for
// big layers (fork even for two batch rows) and a large grain for tiny
// layers (a batch=1 forward over a 64-nnz layer must never fork).
// Hard-coded `grain=1` is a misuse: it forks for every non-empty loop,
// and was measured to dominate single-row inference latency.
#pragma once

#include <cstdint>
#include <exception>
#include <mutex>

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace radix {

/// Number of worker threads the runtime will use (1 when built serially).
inline int hardware_threads() noexcept {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Smallest total amount of per-loop scalar work (flops / memory ops)
/// that amortizes the cost of entering an OpenMP parallel region.  The
/// value is deliberately conservative (~32k ops): forking below it was
/// measured to cost more than it recovers even on small core counts.
inline constexpr std::int64_t kMinOpsPerFork = std::int64_t{1} << 15;

/// Grain (minimum trip count to fork) for a loop whose every iteration
/// performs roughly `ops_per_iteration` scalar operations.  See the
/// grain-policy comment above.
constexpr std::int64_t grain_for_cost(std::int64_t ops_per_iteration) noexcept {
  if (ops_per_iteration <= 0) return kMinOpsPerFork;
  const std::int64_t g = kMinOpsPerFork / ops_per_iteration;
  return g < 1 ? 1 : g;
}

/// Parallel loop over [begin, end).  `body(i)` must be independent across
/// iterations.  Small trip counts run serially to avoid fork overhead.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, const Body& body,
                  std::int64_t grain = 1024) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
#if defined(_OPENMP)
  // n > 1: a single iteration can never profit from a fork, whatever
  // the caller's grain says.
  if (n > 1 && n >= grain && omp_get_max_threads() > 1) {
#pragma omp parallel for schedule(static)
    for (std::int64_t i = begin; i < end; ++i) body(i);
    return;
  }
#else
  (void)grain;
#endif
  for (std::int64_t i = begin; i < end; ++i) body(i);
}

/// parallel_for for bodies that may throw (allocation, input checks).
/// An exception must not leave an OpenMP region, so the first one thrown
/// is kept and rethrown on the calling thread once every iteration has
/// run.
template <typename Body>
void parallel_for_rethrow(std::int64_t begin, std::int64_t end,
                          const Body& body, std::int64_t grain = 1024) {
  std::mutex m;
  std::exception_ptr first;
  parallel_for(
      begin, end,
      [&](std::int64_t i) {
        try {
          body(i);
        } catch (...) {
          std::scoped_lock lock(m);
          if (!first) first = std::current_exception();
        }
      },
      grain);
  if (first) std::rethrow_exception(first);
}

/// Parallel sum-reduction of `body(i)` over [begin, end).
template <typename T, typename Body>
T parallel_reduce_sum(std::int64_t begin, std::int64_t end, const Body& body,
                      std::int64_t grain = 1024) {
  T total{};
  const std::int64_t n = end - begin;
  if (n <= 0) return total;
#if defined(_OPENMP)
  if (n > 1 && n >= grain && omp_get_max_threads() > 1) {
#pragma omp parallel
    {
      T local{};
#pragma omp for schedule(static) nowait
      for (std::int64_t i = begin; i < end; ++i) local += body(i);
#pragma omp critical
      total += local;
    }
    return total;
  }
#else
  (void)grain;
#endif
  for (std::int64_t i = begin; i < end; ++i) total += body(i);
  return total;
}

}  // namespace radix
