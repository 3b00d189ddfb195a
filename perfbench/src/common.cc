#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double quiet_median(const std::vector<double>& values,
                    const std::vector<double>& steals) {
  const double cut = median(steals);
  std::vector<double> quiet;
  for (std::size_t i = 0; i < values.size() && i < steals.size(); ++i) {
    if (steals[i] <= cut) quiet.push_back(values[i]);
  }
  return median(quiet);
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // linux: KiB
}

CpuSample cpu_sample(int cpu) {
  std::ifstream f("/proc/stat");
  const std::string want = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
  std::string line;
  CpuSample s;
  while (std::getline(f, line)) {
    std::istringstream is(line);
    std::string name;
    is >> name;
    if (name != want) continue;
    // user nice system idle iowait irq softirq steal (guest fields are
    // already counted in user/nice).
    for (int i = 0; i < 8; ++i) {
      std::uint64_t x = 0;
      if (!(is >> x)) break;
      s.total += x;
      if (i == 7) s.steal = x;
    }
    break;
  }
  return s;
}

double steal_frac(const CpuSample& a, const CpuSample& b) {
  if (b.total <= a.total) return 0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  return out;
}

void pin_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

std::vector<nors::serve::Query> uniform_pairs(int n, std::size_t count,
                                              nors::util::Rng& rng) {
  std::vector<nors::serve::Query> qs;
  qs.reserve(count);
  const auto un = static_cast<std::uint64_t>(n);
  while (qs.size() < count) {
    const auto u = static_cast<nors::graph::Vertex>(rng.uniform(un));
    const auto v = static_cast<nors::graph::Vertex>(rng.uniform(un));
    if (u != v) qs.push_back({u, v});
  }
  return qs;
}

std::vector<nors::serve::Query> zipf_pairs(int n, std::size_t count, double s,
                                           std::uint64_t perm_seed,
                                           nors::util::Rng& rng) {
  std::vector<nors::graph::Vertex> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  nors::util::Rng perm_rng(perm_seed);
  perm_rng.shuffle(perm);
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double acc = 0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = acc;
  }
  std::vector<nors::serve::Query> qs;
  qs.reserve(count);
  const auto un = static_cast<std::uint64_t>(n);
  while (qs.size() < count) {
    const auto u = static_cast<nors::graph::Vertex>(rng.uniform(un));
    const double x = rng.uniform01() * acc;
    const auto r = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
    const nors::graph::Vertex v = perm[std::min(r, perm.size() - 1)];
    if (u != v) qs.push_back({u, v});
  }
  return qs;
}

std::uint64_t decision_hash(const nors::serve::Decision& d) {
  std::uint64_t h = 1469598103934665603ull;
  auto fold = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  fold(d.ok ? 1 : 0);
  fold(d.via_trick ? 1 : 0);
  fold(static_cast<std::uint64_t>(d.hops));
  fold(static_cast<std::uint64_t>(d.tree_level));
  fold(static_cast<std::uint64_t>(d.tree_root));
  fold(static_cast<std::uint64_t>(d.length));
  return h;
}

void Report::gate(const std::string& name, bool ok,
                  const std::string& detail) {
  if (!ok) correct_ = false;
  gates_.push_back(name + (ok ? ": pass" : ": FAIL") +
                   (detail.empty() ? "" : " (" + detail + ")"));
  std::fprintf(stderr, "gate %s: %s %s\n", name.c_str(),
               ok ? "pass" : "FAIL", detail.c_str());
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

void Report::print() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics_) {
    os << (first ? "" : ", ") << "\"" << k << "\": "
       << (std::isfinite(v) ? v : 0.0);
    first = false;
  }
  os << "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : info_) {
    os << (first ? "" : ", ") << "\"" << k << "\": \"" << json_escape(v)
       << "\"";
    first = false;
  }
  os << "}, \"gates\": [";
  first = true;
  for (const auto& g : gates_) {
    os << (first ? "" : ", ") << "\"" << json_escape(g) << "\"";
    first = false;
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace pb
