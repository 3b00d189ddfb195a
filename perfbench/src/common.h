#pragma once

// Shared helpers of the perfbench binary: clocks, exact order statistics,
// process/CPU probes, seeded query streams and the metric sink that
// perfbench/run.py parses.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "serve/frozen.h"
#include "util/random.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Exact quantile of raw samples (linear interpolation between order
/// statistics) — never a bucketed estimate. Empty input gives 0.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Median of values[i] over the slices whose steals[i] ≤ the median steal:
/// the quieter half of a run, so time the machine's other tenants take
/// moves neither the run nor its median.
double quiet_median(const std::vector<double>& values,
                    const std::vector<double>& steals);

/// Peak resident set of this process so far, MB (getrusage ru_maxrss).
double peak_rss_mb();

/// CPU jiffies from /proc/stat: the aggregate line, or one CPU's line.
struct CpuSample {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuSample cpu_sample(int cpu = -1);
/// Steal share of CPU time between two samples (0 when unavailable).
double steal_frac(const CpuSample& a, const CpuSample& b);

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();
/// Restricts the calling thread (and the threads it creates from now on)
/// to one CPU.
void pin_thread(int cpu);

/// Uniform (u, v) pairs, u != v.
std::vector<nors::serve::Query> uniform_pairs(int n, std::size_t count,
                                              nors::util::Rng& rng);

/// Uniform sources, Zipf(s) destinations over the vertex permutation drawn
/// from `perm_seed` (rank r is drawn with probability ∝ 1 / (r+1)^s).
std::vector<nors::serve::Query> zipf_pairs(int n, std::size_t count, double s,
                                           std::uint64_t perm_seed,
                                           nors::util::Rng& rng);

/// Order-sensitive 64-bit fingerprint of one decision.
std::uint64_t decision_hash(const nors::serve::Decision& d);

/// Commutative digest term of answer `index` (summed mod 2^64, so answers
/// may be folded in any completion order).
inline std::uint64_t digest_term(std::uint64_t index, std::uint64_t h) {
  std::uint64_t z = (index + 0x9e3779b97f4a7c15ull) ^ (h * 0xbf58476d1ce4e5b9ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The result record the binary prints as its last stdout line: named
/// metric values, the operation counts and every correctness gate. The
/// runner (run.py) attaches units and reshapes it into the result line.
class Report {
 public:
  void metric(const std::string& name, double v) { metrics_[name] = v; }
  void info(const std::string& key, const std::string& v) { info_[key] = v; }
  /// Records a correctness gate; a false gate makes the run incorrect.
  void gate(const std::string& name, bool ok, const std::string& detail);
  void attempted(std::int64_t n) { attempted_ += n; }
  void failed(std::int64_t n) { failed_ += n; }
  bool correct() const { return correct_; }
  void print() const;

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> gates_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace pb
