// Construction-pipeline scaling bench (DESIGN.md §7/§9): wall-clock and
// peak RSS of the full RoutingScheme::build at k=3 on the workhorse
// G(n, 3n) workload, n = 2^12 .. 2^16, serial vs thread-pooled rows. The
// threaded rows must report bit-identical round counts — the pool
// only moves wall-clock (the determinism suite enforces the same for
// tables, labels and ledgers). Results land in BENCH_construction.json; the
// committed snapshot lives in bench/results/ (schema:
// bench/results/README.md).
//
// Each pooled row then runs the serving tail of the pipeline on the scheme
// it built — FrozenScheme::freeze and a streamed save_file to a temp file —
// and records freeze_s/save_s; peak_rss_mb is read before that tail, so it
// stays the construction-only figure it always was.
//
// middle_skip_frac = 1 − settled / (|S|·n) is the share of the middle
// level's per-root n-vertex detection rows the join-pruned sweeps never
// built (0 when every root sweeps the whole graph). It is a deterministic
// count, not a timing; CI floors it at the n=8192 smoke.
//
// NORS_BENCH_N caps the largest n for smoke runs (e.g. CI sets 8192);
// NORS_BENCH_THREADS overrides the threaded row's pool size (default 8).
// Note resolve_threads clamps pools to the hardware concurrency, so on a
// 1-core container the pooled row runs serial — the recorded hw_threads
// makes that interpretable in committed snapshots.

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "core/scheme.h"
#include "serve/frozen.h"

namespace {

using namespace nors;

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // linux: KiB
}

int threaded_pool_size() {
  if (const char* e = std::getenv("NORS_BENCH_THREADS")) {
    const int v = std::atoi(e);
    if (v >= 1) return v;
  }
  return 8;
}

}  // namespace

int main() {
  bench::print_header("BENCH construction",
                      "scheme_build wall-clock + peak RSS, "
                      "serial vs thread-pooled (k=3, G(n, 3n), w in [1,32])");
  bench::JsonReport report("construction");
  util::TextTable table({"n", "threads", "wall_s", "rounds", "trees",
                         "peak_rss_mb", "freeze_s", "save_s",
                         "middle_skip_frac"});

  const int max_n = bench::env_n(1 << 16);
  const int pool = threaded_pool_size();
  const int hw_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  for (int n = 1 << 12; n <= max_n; n *= 2) {
    const auto g = bench::bench_graph(n, 911);
    std::int64_t serial_rounds = 0;
    for (const int threads : {1, pool}) {
      {
      core::SchemeParams p;
      p.k = 3;
      p.seed = 7;
      p.threads = threads;
      const bench::WallTimer t;
      const auto s = core::RoutingScheme::build(g, p);
      const double wall = t.seconds();
      const double rss = peak_rss_mb();
      double freeze_s = 0, save_s = 0;
      if (threads == pool) {
        const bench::WallTimer tf;
        const auto frozen = serve::FrozenScheme::freeze(s);
        freeze_s = tf.seconds();
        const std::string path =
            (std::filesystem::temp_directory_path() /
             "nors_bench_construction.frozen")
                .string();
        const bench::WallTimer ts;
        frozen.save_file(path);
        save_s = ts.seconds();
        std::remove(path.c_str());
      }
      const int middle = (p.k - 1) / 2;
      std::int64_t middle_roots = 0;
      for (const auto& t : s.trees()) middle_roots += t.level == middle;
      const double middle_skip_frac =
          middle_roots == 0
              ? 0.0
              : 1.0 - static_cast<double>(s.middle_settled()) /
                          (static_cast<double>(middle_roots) * n);
      if (threads == 1) {
        serial_rounds = s.total_rounds();
      } else {
        // The pool must never change a round count (DESIGN.md §7).
        NORS_CHECK_MSG(s.total_rounds() == serial_rounds,
                       "threaded build diverged from serial round count");
      }
      table.add_row({util::TextTable::fmt(static_cast<std::int64_t>(n)),
                     util::TextTable::fmt(static_cast<std::int64_t>(threads)),
                     util::TextTable::fmt(wall),
                     util::TextTable::fmt(s.total_rounds()),
                     util::TextTable::fmt(
                         static_cast<std::int64_t>(s.trees().size())),
                     util::TextTable::fmt(rss),
                     util::TextTable::fmt(freeze_s),
                     util::TextTable::fmt(save_s),
                     util::TextTable::fmt(middle_skip_frac)});
      report.row()
          .field("row", "construction")
          .field("n", n)
          .field("k", 3)
          .field("threads", threads)
          .field("hw_threads", hw_threads)
          .field("wall_s", wall)
          .field("rounds", s.total_rounds())
          .field("trees", static_cast<std::int64_t>(s.trees().size()))
          .field("peak_rss_mb", rss)
          .field("freeze_s", freeze_s)
          .field("save_s", save_s)
          .field("middle_skip_frac", middle_skip_frac);
      }
      // Row isolation: the scheme just went out of scope — release its
      // heap pages so the next row's peak reflects its own footprint, not
      // inherited free-list garbage (peak_rss_mb stays process-monotonic;
      // this keeps later rows honest rather than cumulative).
#if defined(__GLIBC__)
      ::malloc_trim(0);
#endif
    }
  }
  std::printf("%s", table.render().c_str());
  report.write();
  return 0;
}
