#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <thread>
#include <type_traits>
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

/// A fixed team of `size` workers for a sequence of short parallel phases
/// (the CONGEST round barrier, the freeze passes, parallel_for). The
/// caller is worker 0; the other size-1 threads start in the constructor,
/// park between phases (await_change on the phase counter) and are joined
/// by the destructor, so no team thread outlives its owner's scope.
/// run(body) calls body(t) once for every t in [0, size) and returns when
/// all have finished, rethrowing the first exception (lowest t) any threw.
/// Callers are responsible for determinism: body(t) must write only state
/// that worker t owns in that phase.
class WorkerTeam {
 public:
  explicit WorkerTeam(int size)
      : errors_(static_cast<std::size_t>(std::max(1, size))) {
    threads_.reserve(errors_.size() - 1);
    for (int t = 1; t < static_cast<int>(errors_.size()); ++t) {
      threads_.emplace_back([this, t] { loop(t); });
    }
  }
  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;
  ~WorkerTeam() {
    stop_ = true;
    phase_.fetch_add(1, std::memory_order_release);
    phase_.notify_all();
    for (std::thread& th : threads_) th.join();
  }

  int size() const { return static_cast<int>(errors_.size()); }

  template <typename Body>
  void run(Body&& body) {
    using B = std::remove_reference_t<Body>;
    call_ = [](void* ctx, int t) { (*static_cast<B*>(ctx))(t); };
    ctx_ = const_cast<void*>(static_cast<const void*>(&body));
    dispatch();
  }

 private:
  /// Returns once `a` no longer holds `old` (acquire). Spins briefly
  /// first, then sleeps in a futex wait: back-to-back phases cost no
  /// wake-up latency, and a parked worker stops competing for the CPU
  /// within ~4096 pauses (~60 µs on a current Xeon). Writers notify.
  static void await_change(const std::atomic<std::uint32_t>& a,
                           std::uint32_t old) {
    for (int i = 0; i < 4096; ++i) {
      if (a.load(std::memory_order_acquire) != old) return;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    while (a.load(std::memory_order_acquire) == old) {
      a.wait(old, std::memory_order_acquire);
    }
  }

  void invoke(int t) noexcept {
    try {
      call_(ctx_, t);
    } catch (...) {
      errors_[static_cast<std::size_t>(t)] = std::current_exception();
    }
  }

  void dispatch() {
    remaining_.store(static_cast<std::uint32_t>(threads_.size()),
                     std::memory_order_relaxed);
    phase_.fetch_add(1, std::memory_order_release);
    phase_.notify_all();
    invoke(0);
    for (std::uint32_t left = remaining_.load(std::memory_order_acquire);
         left != 0; left = remaining_.load(std::memory_order_acquire)) {
      await_change(remaining_, left);
    }
    for (std::exception_ptr& e : errors_) {
      if (e) {
        const std::exception_ptr first = e;
        for (std::exception_ptr& r : errors_) r = nullptr;
        std::rethrow_exception(first);
      }
    }
  }

  void loop(int t) {
    std::uint32_t seen = 0;
    for (;;) {
      await_change(phase_, seen);
      seen = phase_.load(std::memory_order_acquire);
      if (stop_) return;
      invoke(t);
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        remaining_.notify_one();
      }
    }
  }

  void (*call_)(void*, int) = nullptr;
  void* ctx_ = nullptr;
  bool stop_ = false;  // published by the phase_ increment that follows it
  std::atomic<std::uint32_t> phase_{0};
  std::atomic<std::uint32_t> remaining_{0};
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
};

/// Runs `body(worker, index)` for every index in [0, count) on a
/// WorkerTeam of `nthreads` workers claiming indices from one atomic
/// counter. `worker` is the dense worker id (0..nthreads-1) for per-worker
/// scratch; the first exception (lowest worker id) any worker throws is
/// rethrown after all have finished. nthreads <= 1 runs inline with worker
/// id 0. Callers are responsible for determinism: body(., i) must write
/// only state owned by index i.
template <typename Body>
void parallel_for(int nthreads, std::size_t count, Body&& body) {
  if (nthreads <= 1 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  WorkerTeam team(nthreads);
  team.run([&](int t) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(t, i);
    }
  });
}

}  // namespace nors::util
