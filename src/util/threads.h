#pragma once

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

// Thread-count resolution and the shared worker-pool shape for the
// construction thread pools. Every parallel phase in this library is
// deterministic by construction (workers own disjoint output slots; folds
// over worker results run serially in a fixed order), so the pool size
// affects wall-clock only — never a table, label, round count, or ledger
// entry.

namespace nors::util {

/// Resolves a `threads` parameter: a positive request is taken as-is up to
/// the hardware clamp below; 0 consults the NORS_THREADS environment
/// variable; unset or unparsable means 1 (serial).
///
/// The resolved count is clamped to the hardware concurrency: requesting 8
/// workers on a 1-core container makes every pooled phase *slower* than
/// serial (context-switch churn plus eight cold scratch arenas thrashing
/// one cache), and because determinism is structural — pool size never
/// changes a table, label, round count, or ledger entry — the clamp is
/// unobservable except in wall-clock. Set NORS_THREADS_OVERSUBSCRIBE=1 to
/// restore exact pool sizes (the determinism suite does, so real 8-worker
/// pools are exercised even on small machines).
inline int resolve_threads(int requested) {
  int t = requested;
  if (t <= 0) {
    const char* e = std::getenv("NORS_THREADS");
    t = e == nullptr ? 1 : std::max(1, std::atoi(e));
  }
  const char* oversub = std::getenv("NORS_THREADS_OVERSUBSCRIBE");
  if (oversub != nullptr && std::atoi(oversub) != 0) return t;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) t = std::min(t, static_cast<int>(hw));
  return std::max(1, t);
}

/// Runs `body(worker, index)` for every index in [0, count) across
/// `nthreads` workers claiming indices from one atomic counter. `worker`
/// is the dense worker id (0..nthreads-1) for per-worker scratch; the
/// first exception any worker throws is rethrown after all have joined.
/// nthreads <= 1 runs inline with worker id 0. Callers are responsible
/// for determinism: body(., i) must write only state owned by index i.
template <typename Body>
void parallel_for(int nthreads, std::size_t count, Body&& body) {
  if (nthreads <= 1 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nthreads));
  auto worker = [&](int t) {
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        body(t, i);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(t)] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(nthreads) - 1);
  for (int t = 1; t < nthreads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& th : pool) th.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace nors::util
