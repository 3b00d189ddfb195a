// perfbench: the repository's end-to-end benchmark binary. Driven by
// perfbench/run.py, which builds it, prepares images and attaches units.
//
//   perfbench image --n N --k K --seed S --threads T --out IMAGE
//       Build the serving image in its own process (graph → build →
//       freeze → save), so a serving run's peak RSS is the server's alone.
//   perfbench run --workload W --seed S --seconds T --trace 0|1
//                 --workdir DIR [--image IMAGE] [--smoke]
//       Run one workload: construct | wire_read | live_churn.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (by name), info and the correctness gates.

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "core/params.h"
#include "inputs.h"
#include "layers.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "pipeline.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "serve/table_cache.h"
#include "util/check.h"

namespace {

namespace serve = nors::serve;
namespace net = nors::net;
using pb::Report;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum Tag : std::uint64_t {
  kQueries = 1, kChurn, kStretch, kSample,
};

// The graph and the scheme's own randomness are fixed inputs, so rounds,
// table and label sizes are exact constants and build times compare the
// same work on every run; --seed drives every stream: queries, churn,
// stretch-check sources and samples.
constexpr std::uint64_t kGraphSeed = 0x6e6f7273;  // "nors"
constexpr std::uint64_t kSchemeSeed = 23;
// The hot set of wire_read's Zipf destinations and the sources of the
// reported stretch sample are part of the workload too: a different hot
// vertex or sample would change the figure, not the program.
constexpr std::uint64_t kZipfPermSeed = 29;
constexpr std::uint64_t kStretchSeed = 31;

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) != 0; }
  std::string get(const std::string& k, const std::string& dflt = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  double num(const std::string& k, double dflt) const {
    return has(k) ? std::stod(get(k)) : dflt;
  }
};

/// Everything a workload is sized by. The full values are the benchmark;
/// the smoke values shrink every input so the whole path runs in seconds.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string image;
  int nproc = 1;
  int shards = 1;  // serving shards (one server CPU, see run_serving)

  int k = 3;
  int construct_n = 1 << 15;
  int min_builds = 3;
  int setup_repeats = 5;
  int graph_repeats = 25;            // construct's set-up
  int stretch_sources = 64;         // fixed sample (reported and gated)
  int seeded_stretch_sources = 32;  // --seed sample (gated)
  std::size_t pool = 1 << 20;        // query pool (cycled)
  std::size_t construct_queries = 1 << 20;
  double warmup_s = 1.5;
  double replay_s = 0.5;             // per timed engine in the traced run
  // live_churn
  double read_qps = 20000;
  double update_rate = 50;
  int update_events = 64;
  int churn_links = 4096;
  int fail_every = 64;
  int fail_cap = 1;
  std::size_t sample_queries = 1 << 16;
  int probe_batches = 400;          // timed, after warm_batches
  int warm_batches = 200;
  // construct applies more untimed batches: the builds end by trimming the
  // heap, and apply's allocations fault pages back in for a while.
  int construct_warm_batches = 1000;
  // fixed on-time limits
  double wire_limit_us = 20000;
  double churn_limit_us = 2000;
  double update_limit_us = 10000;
  double block_limit_us = 1000;

  void apply_smoke() {
    construct_n = 1 << 10;
    min_builds = 2;
    setup_repeats = 2;
    stretch_sources = 4;
    seeded_stretch_sources = 2;
    graph_repeats = 3;
    pool = 1 << 14;
    construct_queries = 1 << 14;
    warmup_s = 0.2;
    replay_s = 0.05;
    churn_links = 256;
    sample_queries = 1 << 12;
    probe_batches = 40;
    warm_batches = 20;
    construct_warm_batches = 20;
  }
};

double stretch_bound_for(int k) {
  return nors::core::stretch_bound(k, nors::util::Epsilon::paper_value(k),
                                   /*label_trick=*/true);
}

std::vector<std::vector<serve::EdgeUpdate>> churn_batches(
    const serve::FrozenScheme& fs, const Config& c, std::size_t count) {
  pb::Churn churn(fs, sub_seed(c.seed, kChurn), c.churn_links, c.fail_every,
                  c.fail_cap);
  std::vector<std::vector<serve::EdgeUpdate>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(churn.next_batch(c.update_events));
  }
  return out;
}

void report_build(Report& rep, const pb::BuildResult& b, double build_s,
                  double generate_s) {
  rep.metric("build_s", build_s);
  rep.metric("rounds", static_cast<double>(b.rounds));
  rep.metric("table_words_max", static_cast<double>(b.table_words_max));
  rep.metric("label_words_max", static_cast<double>(b.label_words_max));
  rep.metric("graph.generate_s", generate_s);
  rep.metric("core.build_s", b.build_s);
  rep.metric("serve.freeze_s", b.freeze_s);
  rep.metric("serve.save_s", b.save_s);
  rep.metric("core.trees", static_cast<double>(b.trees));
  std::int64_t covered = 0;
  for (const char* p : pb::kLedgerPhases) {
    rep.metric(std::string("congest.rounds.") + p,
               static_cast<double>(b.phase_rounds.at(p)));
    rep.metric(std::string("congest.messages.") + p,
               static_cast<double>(b.phase_messages.at(p)));
    covered += b.phase_rounds.at(p);
  }
  rep.gate("table_words_one_pass_matches", b.table_words_checked, "");
  rep.gate("ledger_phases_cover_rounds", covered == b.rounds,
           std::to_string(covered) + " of " + std::to_string(b.rounds));
}

// ------------------------------------------------------------ image mode --

/// Builds `path` from the fixed graph at least `min_builds` times and
/// until `seconds` have passed (each build overwrites the image); returns
/// the median timings. Every build must account the same rounds.
pb::BuildResult build_repeated(const nors::graph::WeightedGraph& g, int k,
                               int threads, const std::string& path,
                               int min_builds, double seconds, Report& rep,
                               double* median_total) {
  std::vector<double> total, core, freeze, save;
  pb::BuildResult first;
  bool same_rounds = true;
  const double t_start = pb::now_s();
  for (int i = 0; i < 16; ++i) {
    const auto b = pb::build_image(g, k, kSchemeSeed, threads, path);
    rep.attempted(1);
    total.push_back(b.total_s());
    core.push_back(b.build_s);
    freeze.push_back(b.freeze_s);
    save.push_back(b.save_s);
    std::fprintf(stderr, "build %d: %.3f s\n", i, b.total_s());
    if (i == 0) first = b;
    same_rounds = same_rounds && b.rounds == first.rounds &&
                  b.table_words_max == first.table_words_max;
    if (i + 1 >= min_builds && pb::now_s() - t_start >= seconds) break;
  }
  rep.gate("rounds_identical_across_builds", same_rounds,
           std::to_string(first.rounds) + " rounds, " +
               std::to_string(total.size()) + " builds");
  first.build_s = pb::median(core);
  first.freeze_s = pb::median(freeze);
  first.save_s = pb::median(save);
  *median_total = pb::median(total);
  return first;
}

int image_main(const Args& a) {
  Report rep;
  const int n = static_cast<int>(a.num("n", 1 << 14));
  const int k = static_cast<int>(a.num("k", 3));
  const int threads = static_cast<int>(a.num("threads", 1));
  const int repeats = static_cast<int>(a.num("repeats", 3));
  const double g0 = pb::now_s();
  const auto g = pb::make_graph(n, kGraphSeed);
  const double gen_s = pb::now_s() - g0;
  double total = 0;
  const auto b = build_repeated(g, k, threads, a.get("out"), repeats, 0, rep,
                                &total);
  report_build(rep, b, total, gen_s);
  rep.print();
  return rep.correct() ? 0 : 1;
}

// ------------------------------------------------------ serving helpers --

/// Boots a server on the image: map → Server (+ WAL recovery) → first
/// answered query, `c.setup_repeats` times (each dropped but the last);
/// returns the last server and the timings.
struct Booted {
  std::unique_ptr<net::Server> server;
  std::vector<double> setup_s;
  std::vector<double> map_s;
  double image_mb = 0;
};

Booted boot(const Config& c, net::NetServerOptions opt, bool with_wal) {
  Booted out;
  for (int r = 0; r < c.setup_repeats; ++r) {
    if (with_wal) {
      opt.wal_dir = c.workdir + "/wal";
      std::filesystem::remove_all(opt.wal_dir);
    }
    const double t0 = pb::now_s();
    auto fs = serve::FrozenScheme::map(c.image);
    const double t1 = pb::now_s();
    out.image_mb = static_cast<double>(fs.byte_size()) / (1 << 20);
    auto srv = std::make_unique<net::Server>(std::move(fs), opt);
    net::Client client("127.0.0.1", srv->port());
    const auto d = client.route({{0, 1}});
    NORS_CHECK(d.size() == 1);
    out.setup_s.push_back(pb::now_s() - t0);
    out.map_s.push_back(t1 - t0);
    if (r + 1 < c.setup_repeats) {
      srv->drain();
    } else {
      out.server = std::move(srv);
    }
  }
  return out;
}

/// The read-layer part of the query path's parts sum: codec + route
/// compute + shard handoff per frame, µs.
double attributed_frame_us(const pb::ReadLayers& rl, int frame_queries) {
  const double compute_us = frame_queries / rl.cached_qps * 1e6;
  const double handoff_us =
      rl.shard_handoff_frac < 1
          ? compute_us * rl.shard_handoff_frac / (1 - rl.shard_handoff_frac)
          : 0;
  return (rl.request_codec_ns + rl.response_codec_ns) * 1e-3 + compute_us +
         handoff_us;
}

/// Per-layer metrics from the server's counters and the generator's spans.
void report_net(Report& rep, const net::WireStats& st,
                const pb::LoadResult& load, const pb::ReadLayers& rl,
                int frame_queries) {
  std::vector<double> rtt;
  for (const auto& s : load.spans) {
    rtt.push_back(static_cast<double>(s.recv_ns - s.send_ns) * 1e-3);
  }
  const double rtt_p50 = pb::median(rtt);
  const double server_p50 = static_cast<double>(st.p50_ns) * 1e-3;
  rep.metric("net.server_p50_us", server_p50);
  rep.metric("net.server_p99_us", static_cast<double>(st.p99_ns) * 1e-3);
  rep.metric("net.transport_p50_us", rtt_p50 - server_p50);
  rep.metric("net.frame_rtt_p99_us", pb::quantile(rtt, 0.99));
  rep.metric("net.unattributed_frac",
             rtt_p50 > 0
                 ? (rtt_p50 - attributed_frame_us(rl, frame_queries)) / rtt_p50
                 : 0);
  rep.metric("net.shed", static_cast<double>(st.shed));
  rep.metric("net.timeouts", static_cast<double>(st.timeouts));
  rep.metric("net.protocol_errors", static_cast<double>(st.protocol_errors));
  rep.metric("net.max_inflight", static_cast<double>(st.max_inflight));
  const double q = std::max<double>(1, static_cast<double>(st.queries));
  rep.metric("net.masked_frac", static_cast<double>(st.masked) / q);
  rep.metric("net.repaired_frac", static_cast<double>(st.repaired) / q);
  rep.metric("bench.gen_late_p99_us", pb::quantile(load.late_us, 0.99));
  const std::size_t tenth = load.late_us.size() / 10;
  rep.metric("bench.gen_late_p99_us_start",
             pb::quantile({load.late_us.begin(),
                           load.late_us.begin() +
                               static_cast<std::ptrdiff_t>(tenth)},
                          0.99));
  rep.metric("bench.gen_late_p99_us_end",
             pb::quantile({load.late_us.end() -
                               static_cast<std::ptrdiff_t>(tenth),
                           load.late_us.end()},
                          0.99));
}

void report_reads(Report& rep, const pb::ReadLayers& rl) {
  rep.metric("serve.route_batch_qps", rl.route_batch_qps);
  rep.metric("serve.route_batch_dps", rl.route_batch_dps);
  rep.metric("serve.avg_hops", rl.avg_hops);
  rep.metric("serve.cached_qps", rl.cached_qps);
  rep.metric("serve.cache_hit_frac", rl.cache_hit_frac);
  rep.metric("serve.shard_qps", rl.shard_qps);
  rep.metric("serve.shard_handoff_frac", rl.shard_handoff_frac);
  rep.metric("net.wire.request_codec_ns", rl.request_codec_ns);
  rep.metric("net.wire.response_codec_ns", rl.response_codec_ns);
}

/// Update-path layers; the delta counts at start/end are the replay's
/// unless the workload's own acks supplied them (`acks`).
void report_updates(Report& rep, const pb::UpdateLayers& ul,
                    const std::vector<double>& ack_us,
                    const pb::LoadResult* acks) {
  const double publish = ul.server_apply_us_p50 - ul.delta_apply_us_p50;
  rep.metric("serve.delta.apply_us_p50", ul.delta_apply_us_p50);
  rep.metric("serve.wal.append_us_p50", ul.wal_append_us_p50);
  rep.metric("serve.wal.sync_us_p50", ul.wal_sync_us_p50);
  rep.metric("net.publish_us_p50", publish);
  rep.metric("net.update_ack_p99_us", pb::quantile(ack_us, 0.99));
  const double ack_p50 = pb::median(ack_us);
  rep.metric("net.update_unattributed_frac",
             ack_p50 > 0 ? 1 - (ul.delta_apply_us_p50 + ul.wal_append_us_p50 +
                                publish) /
                                   ack_p50
                         : 0);
  rep.metric("serve.overlay_qps", ul.overlay_qps);
  auto set = [&rep](const char* name, std::int64_t s, std::int64_t e) {
    rep.metric(std::string("serve.delta.") + name + "_start",
               static_cast<double>(s));
    rep.metric(std::string("serve.delta.") + name + "_end",
               static_cast<double>(e));
  };
  if (acks != nullptr) {
    set("overrides", acks->first_window_ack.overrides,
        acks->last_ack.overrides);
    set("failed_links", acks->first_window_ack.failed_links,
        acks->last_ack.failed_links);
    set("masked_trees", acks->first_window_ack.masked_trees,
        acks->last_ack.masked_trees);
  } else {
    set("overrides", ul.overrides_start, ul.overrides_end);
    set("failed_links", ul.failed_start, ul.failed_end);
    set("masked_trees", ul.masked_start, ul.masked_end);
  }
}

/// Reference digest of the closed-loop answers: in-process route_batch of
/// the pool, folded over every query index the generator sent.
std::uint64_t reference_digest(const serve::FrozenScheme& fs,
                               const std::vector<serve::Query>& pool,
                               std::uint64_t sent) {
  std::vector<serve::Decision> ds(pool.size());
  fs.route_batch(pool.data(), pool.size(), ds.data());
  std::vector<std::uint64_t> h(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) h[i] = pb::decision_hash(ds[i]);
  std::uint64_t digest = 0;
  for (std::uint64_t i = 0; i < sent; ++i) {
    digest += pb::digest_term(i, h[i % pool.size()]);
  }
  return digest;
}

double frac(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

/// Per-slice figures of an operation timed `count` times in `slices`
/// equal slices, with `cpu`'s steal share sampled around each slice.
struct Sliced {
  std::vector<double> op_us;        // every operation
  std::vector<double> slice_p50;    // per slice: median op time
  std::vector<double> slice_rate;   // per slice: operations per second
  std::vector<double> slice_steal;
};

template <typename Op>
Sliced time_sliced(std::size_t count, std::size_t slices, int cpu, Op&& op) {
  Sliced out;
  const std::size_t per = std::max<std::size_t>(1, count / slices);
  for (std::size_t i = 0; i < count; i += per) {
    const auto cpu0 = pb::cpu_sample(cpu);
    const std::int64_t s0 = pb::now_ns();
    std::vector<double> us;
    for (std::size_t j = i; j < std::min(count, i + per); ++j) {
      const std::int64_t t0 = pb::now_ns();
      op(j);
      us.push_back(static_cast<double>(pb::now_ns() - t0) * 1e-3);
    }
    const double wall = static_cast<double>(pb::now_ns() - s0) * 1e-9;
    out.slice_steal.push_back(pb::steal_frac(cpu0, pb::cpu_sample(cpu)));
    out.slice_rate.push_back(static_cast<double>(us.size()) / wall);
    out.slice_p50.push_back(pb::median(us));
    out.op_us.insert(out.op_us.end(), us.begin(), us.end());
  }
  return out;
}

std::int64_t count_within(const std::vector<double>& us, double limit) {
  return std::count_if(us.begin(), us.end(),
                       [limit](double x) { return x <= limit; });
}

/// Gates the stretch of the fixed source sample and of a sample drawn from
/// --seed against `bound`; returns the fixed sample's maximum (the reported
/// figure).
double check_stretch(Report& rep, const serve::FrozenScheme& fs,
                     const serve::DeltaSet* delta, const Config& c,
                     double bound, const std::string& gate) {
  const auto fixed =
      pb::stretch_sample(fs, delta, c.stretch_sources, kStretchSeed);
  const auto seeded = pb::stretch_sample(fs, delta, c.seeded_stretch_sources,
                                         sub_seed(c.seed, kStretch));
  const double worst = std::max(fixed.stretch_max, seeded.stretch_max);
  rep.gate(gate, worst <= bound && fixed.short_ + seeded.short_ == 0,
           std::to_string(worst) + " <= " + std::to_string(bound));
  return fixed.stretch_max;
}

/// Closed-loop unloaded update probe: one kUpdate at a time; the first
/// `warm` batches untimed, the rest timed in slices against `cpu`'s steal.
Sliced update_probe(int port,
                    const std::vector<std::vector<serve::EdgeUpdate>>& bs,
                    int warm, int cpu) {
  net::Client client("127.0.0.1", port);
  for (int b = 0; b < warm; ++b) client.update(bs[static_cast<std::size_t>(b)]);
  return time_sliced(bs.size() - static_cast<std::size_t>(warm), 10, cpu,
                     [&](std::size_t b) {
                       client.update(bs[static_cast<std::size_t>(warm) + b]);
                     });
}

// -------------------------------------------------------------- construct --

void run_construct(const Config& c, Report& rep) {
  // Set-up: graph generation, repeated; the last graph is the input.
  std::vector<double> gen;
  nors::graph::WeightedGraph g;
  for (int r = 0; r < c.graph_repeats; ++r) {
    const double t0 = pb::now_s();
    g = pb::make_graph(c.construct_n, kGraphSeed);
    gen.push_back(pb::now_s() - t0);
  }
  const double setup_s = pb::median(gen);

  // Measured phase: the pipeline, repeated until the time is spent.
  const std::string path = c.workdir + "/construct.frozen";
  double build_s = 0;
  const auto first = build_repeated(g, c.k, c.nproc, path, c.min_builds,
                                    c.seconds, rep, &build_s);
  report_build(rep, first, build_s, setup_s);
  rep.metric("setup_s", setup_s);

  auto fs = serve::FrozenScheme::map(path);
  rep.metric("stretch_max", check_stretch(rep, fs, nullptr, c,
                                          first.stretch_bound,
                                          "stretch_within_bound"));

  // The serving-side phases run on one CPU, whose steal is sampled per
  // slice.
  const auto cpus = pb::allowed_cpus();
  const int cpu = cpus.empty() ? 0 : cpus[0];
  pb::pin_thread(cpu);

  // Query path on the fresh image: in-process route_batch, 64-query blocks.
  nors::util::Rng qrng(sub_seed(c.seed, kQueries));
  const auto qs = pb::uniform_pairs(fs.n(), c.construct_queries, qrng);
  std::vector<serve::Decision> ds(64);
  std::int64_t ok = 0;
  const auto blocks = time_sliced(qs.size() / 64, 16, cpu, [&](std::size_t b) {
    fs.route_batch(qs.data() + b * 64, 64, ds.data());
    for (const auto& d : ds) ok += d.ok ? 1 : 0;
  });
  const auto attempted = static_cast<std::int64_t>(qs.size());
  rep.attempted(attempted);
  rep.metric("query_qps",
             64 * pb::quiet_median(blocks.slice_rate, blocks.slice_steal));
  rep.metric("query_p50_us",
             pb::quiet_median(blocks.slice_p50, blocks.slice_steal));
  rep.metric("query_ok_frac", frac(ok, attempted));
  rep.metric("query_ontime_frac",
             frac(count_within(blocks.op_us, c.block_limit_us),
                  static_cast<std::int64_t>(blocks.op_us.size())));
  rep.gate("all_queries_routed", ok == attempted,
           std::to_string(ok) + " of " + std::to_string(attempted));

  // Update path on the fresh image: the churn sequence chained through
  // DeltaSet::apply; the first batches bring the override set to its
  // steady size untimed.
  const auto batches = churn_batches(
      fs, c,
      static_cast<std::size_t>(c.construct_warm_batches + c.probe_batches));
  std::shared_ptr<const serve::DeltaSet> cur;
  for (int b = 0; b < c.construct_warm_batches; ++b) {
    cur = serve::DeltaSet::apply(fs, cur.get(),
                                 batches[static_cast<std::size_t>(b)]);
  }
  const auto applies = time_sliced(
      static_cast<std::size_t>(c.probe_batches), 10, cpu, [&](std::size_t b) {
        cur = serve::DeltaSet::apply(
            fs, cur.get(),
            batches[static_cast<std::size_t>(c.construct_warm_batches) + b]);
      });
  rep.attempted(c.probe_batches);
  rep.metric("update_ack_p50_us",
             pb::quiet_median(applies.slice_p50, applies.slice_steal));
  rep.metric("update_ontime_frac",
             frac(count_within(applies.op_us, c.update_limit_us),
                  c.probe_batches));
  rep.metric("peak_rss_mb", pb::peak_rss_mb());

  if (!c.trace) return;
  // Traced run: the read and update layers on this image and its inputs,
  // then a short loopback probe for the wire counters.
  const auto rl = pb::replay_reads(fs, qs, 64, c.shards, c.replay_s);
  report_reads(rep, rl);
  net::NetServerOptions opt;
  opt.shards = c.shards;
  opt.cache_entries = 4096;
  Config bc = c;
  bc.image = path;
  bc.setup_repeats = 1;
  auto booted = boot(bc, opt, false);
  pb::pin_thread(cpus.size() > 1 ? cpus[1] : cpu);
  rep.metric("serve.map_s", booted.map_s.back());
  rep.metric("serve.image_mb", booted.image_mb);
  pb::LoadSpec spec;
  spec.pool = &qs;
  spec.warmup_s = c.warmup_s / 3;
  spec.window_s = std::max(0.2, c.seconds / 10);
  spec.sub_s = spec.window_s;
  spec.spans = true;
  spec.query_limit_us = c.wire_limit_us;
  const auto load = pb::run_load(booted.server->port(), spec);
  const auto st = booted.server->stats();
  report_net(rep, st, load, rl, 64);
  const auto acks =
      update_probe(booted.server->port(), batches, c.warm_batches, cpu).op_us;
  booted.server->drain();
  const auto ul = pb::replay_updates(fs, path, batches, qs, serve::FsyncPolicy::kInterval,
                                     c.shards, c.workdir, c.replay_s);
  report_updates(rep, ul, acks, nullptr);
  rep.metric("bench.trace_overhead_frac", 0);
}

// ---------------------------------------------------------------- serving --

double sub_p50(const pb::LoadResult&, const pb::SubWindow& w) {
  return pb::median(w.frame_us);
}
double sub_qps(const pb::LoadResult& l, const pb::SubWindow& w) {
  return static_cast<double>(w.queries_ontime) / l.sub_s;
}
/// Median over one pass's sub-windows of `f`.
double pass_median(const pb::LoadResult& l,
                   double (*f)(const pb::LoadResult&, const pb::SubWindow&)) {
  std::vector<double> v;
  for (const auto& w : l.subs) v.push_back(f(l, w));
  return pb::median(v);
}

void run_serving(const Config& c, Report& rep) {
  const bool churn = c.workload == "live_churn";
  net::NetServerOptions opt;
  opt.loops = 1;
  opt.shards = c.shards;
  opt.cache_entries = 4096;
  opt.fsync = serve::FsyncPolicy::kInterval;

  // Placement: every server thread (acceptor, loop, shard worker) on one
  // CPU and the generator on another, so neither steals the other's time
  // and no handoff waits on a CPU the hypervisor has descheduled. Server
  // threads inherit the affinity of the thread that creates them.
  const auto cpus = pb::allowed_cpus();
  const int server_cpu = cpus.empty() ? 0 : cpus[0];
  const int gen_cpu = cpus.size() > 1 ? cpus[1] : server_cpu;

  // The update batches come from the image's link map, read from a mapping
  // dropped before the server boots, so it never adds to the peak RSS.
  // live_churn: the stream for warm-up and window; wire_read: the probe.
  std::vector<std::vector<serve::EdgeUpdate>> batches;
  {
    const auto fs = serve::FrozenScheme::map(c.image);
    batches = churn_batches(
        fs, c,
        churn ? static_cast<std::size_t>(
                    c.update_rate * (c.warmup_s + c.seconds) + 1)
              : static_cast<std::size_t>(c.warm_batches + c.probe_batches));
  }

  pb::pin_thread(server_cpu);
  const auto cpu0 = pb::cpu_sample();
  Booted booted = boot(c, opt, churn);
  pb::pin_thread(gen_cpu);
  rep.metric("setup_s", pb::median(booted.setup_s));
  net::Server& srv = *booted.server;
  const int n = [&] {
    net::Client cl("127.0.0.1", srv.port());
    return cl.hello().n;
  }();

  nors::util::Rng qrng(sub_seed(c.seed, kQueries));
  const auto pool = churn ? pb::uniform_pairs(n, c.pool, qrng)
                          : pb::zipf_pairs(n, c.pool, 1.0, kZipfPermSeed, qrng);

  pb::LoadSpec spec;
  spec.pool = &pool;
  spec.warmup_s = c.warmup_s;
  spec.window_s = c.seconds;
  spec.steal_cpu = server_cpu;
  if (churn) {
    spec.frame_queries = 4;
    spec.read_qps = c.read_qps;
    spec.update_rate = c.update_rate;
    spec.query_limit_us = c.churn_limit_us;
    spec.update_limit_us = c.update_limit_us;
  } else {
    spec.query_limit_us = c.wire_limit_us;
  }

  // Untraced: one window. Traced: an untraced half and a traced half, so
  // the difference between them is the tracing overhead.
  std::vector<pb::LoadResult> loads;
  std::size_t batches_sent = 0;
  const int passes = c.trace ? 2 : 1;
  for (int p = 0; p < passes; ++p) {
    pb::LoadSpec s = spec;
    s.window_s = spec.window_s / passes;
    s.sub_s = std::min(1.0, s.window_s);
    if (p > 0) s.warmup_s = 0;
    s.spans = c.trace && p == passes - 1;
    std::vector<std::vector<serve::EdgeUpdate>> rest;
    if (churn) {
      rest.assign(batches.begin() + static_cast<std::ptrdiff_t>(batches_sent),
                  batches.end());
      s.updates = &rest;
    }
    loads.push_back(pb::run_load(srv.port(), s));
    batches_sent += static_cast<std::size_t>(loads.back().updates_acked +
                                             loads.back().update_errors);
  }
  const pb::LoadResult& L = loads.back();
  const auto cpu1 = pb::cpu_sample();

  // Totals for the operation counts; the reported figures are medians
  // over one-second sub-windows of every pass — the quieter half of them
  // by hypervisor steal on the server's CPU, so time the machine's other
  // tenants take moves neither the run nor its median.
  std::int64_t attempted = 0, answered = 0, upd_attempted = 0, acked = 0;
  std::int64_t errors = 0, unanswered = 0;
  std::int64_t quiet_attempted = 0, quiet_ok = 0, quiet_ontime = 0;
  std::int64_t quiet_upd_attempted = 0, quiet_upd_ontime = 0;
  std::vector<double> qps, p50, ack_p50;
  std::vector<double> ack_us, steals;
  for (const auto& l : loads) {
    for (const auto& w : l.subs) steals.push_back(w.steal_frac);
  }
  const double steal_cut = pb::median(steals);
  std::string series;
  for (const auto& l : loads) {
    errors += l.error_frames + l.update_errors;
    unanswered += l.unanswered;
    for (const auto& w : l.subs) {
      attempted += w.queries_attempted;
      answered += w.queries_answered;
      upd_attempted += w.updates_attempted;
      acked += static_cast<std::int64_t>(w.ack_us.size());
      ack_us.insert(ack_us.end(), w.ack_us.begin(), w.ack_us.end());
      series += std::to_string(static_cast<int>(sub_qps(l, w))) + "/" +
                std::to_string(static_cast<int>(sub_p50(l, w))) + "/" +
                std::to_string(w.steal_frac).substr(0, 5) + " ";
      if (w.steal_frac > steal_cut) continue;
      qps.push_back(sub_qps(l, w));
      p50.push_back(sub_p50(l, w));
      quiet_attempted += w.queries_attempted;
      quiet_ok += w.queries_ok;
      quiet_ontime += w.queries_ontime;
      quiet_upd_attempted += w.updates_attempted;
      quiet_upd_ontime += w.updates_ontime;
      if (!w.ack_us.empty()) ack_p50.push_back(pb::median(w.ack_us));
    }
  }
  rep.info("qps_p50us_steal_by_subwindow", series);
  rep.attempted(attempted + upd_attempted);
  rep.failed(attempted - answered + upd_attempted - acked);
  rep.metric("query_qps", pb::median(qps));
  rep.metric("query_p50_us", pb::median(p50));
  rep.metric("query_ok_frac", frac(quiet_ok, quiet_attempted));
  rep.metric("query_ontime_frac", frac(quiet_ontime, quiet_attempted));
  rep.gate("no_error_frames", errors == 0 && unanswered == 0,
           std::to_string(errors) + " errors, " + std::to_string(unanswered) +
               " unanswered");

  // Post-window checks that need the live server.
  std::vector<serve::Query> sample;
  std::vector<serve::Decision> sample_wire;
  if (churn) {
    nors::util::Rng srng(sub_seed(c.seed, kSample));
    sample = pb::uniform_pairs(n, c.sample_queries, srng);
    net::Client cl("127.0.0.1", srv.port());
    sample_wire = cl.route(sample);
  }
  const auto st = srv.stats();
  rep.gate("protocol_errors_zero", st.protocol_errors == 0,
           std::to_string(st.protocol_errors));
  if (churn) {
    rep.metric("update_ack_p50_us", pb::median(ack_p50));
    rep.metric("update_ontime_frac",
               frac(quiet_upd_ontime, quiet_upd_attempted));
    const auto logged = static_cast<std::int64_t>(batches_sent);
    rep.gate("wal_records_equal_acked", st.wal_records == logged,
             std::to_string(st.wal_records) + " vs " + std::to_string(logged));
  } else {
    // Read-only window; the update path is measured unloaded afterwards.
    const auto acks = update_probe(srv.port(), batches, c.warm_batches,
                                   server_cpu);
    ack_us = acks.op_us;
    rep.attempted(c.probe_batches);
    rep.metric("update_ack_p50_us",
               pb::quiet_median(acks.slice_p50, acks.slice_steal));
    rep.metric("update_ontime_frac",
               frac(count_within(ack_us, c.update_limit_us), c.probe_batches));
  }
  booted.server->drain();
  booted.server.reset();
  if (churn) std::filesystem::remove_all(c.workdir + "/wal");
  rep.metric("peak_rss_mb", pb::peak_rss_mb());

  // Checks against in-process references on a fresh mapping.
  const auto fs = serve::FrozenScheme::map(c.image);
  const double bound = stretch_bound_for(c.k);
  if (churn) {
    std::shared_ptr<const serve::DeltaSet> cur;
    for (std::size_t b = 0; b < batches_sent; ++b) {
      cur = serve::DeltaSet::apply(fs, cur.get(), batches[b]);
    }
    const auto& last = L.last_ack;
    const bool same = cur && cur->override_count() == last.overrides &&
                      cur->failed_link_count() == last.failed_links &&
                      cur->masked_tree_count() == last.masked_trees;
    rep.gate("replayed_delta_matches_server", same,
             cur ? std::to_string(cur->override_count()) + "/" +
                       std::to_string(cur->failed_link_count()) + "/" +
                       std::to_string(cur->masked_tree_count()) + " vs " +
                       std::to_string(last.overrides) + "/" +
                       std::to_string(last.failed_links) + "/" +
                       std::to_string(last.masked_trees)
                 : "no delta");
    if (cur) {
      std::vector<serve::Decision> ref(sample.size());
      serve::NoTableCache none;
      fs.route_batch_overlay(sample.data(), sample.size(), ref.data(), none,
                             *cur);
      std::int64_t diff = 0;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        diff += pb::decision_hash(ref[i]) != pb::decision_hash(sample_wire[i]);
      }
      rep.gate("wire_sample_equals_overlay", diff == 0,
               std::to_string(diff) + " of " + std::to_string(ref.size()) +
                   " differ");
      // Repricing within α = 2 of the frozen weights: α²·(4k−5) (DESIGN §13).
      check_stretch(rep, fs, cur.get(), c, 4 * bound,
                    "stretch_within_repair_bound");
      // The reported figure is the served image's own, as on wire_read:
      // the final delta set is a random state of the churn stream.
      rep.metric("stretch_max", check_stretch(rep, fs, nullptr, c, bound,
                                              "stretch_within_bound"));
    }
  } else {
    std::uint64_t want = 0, got = 0;
    for (const auto& l : loads) {
      want += reference_digest(fs, pool, l.queries_sent);
      got += l.digest;
    }
    rep.gate("wire_digest_equals_route_batch", want == got,
             std::to_string(L.queries_sent) + " queries in the last pass");
    rep.metric("stretch_max", check_stretch(rep, fs, nullptr, c, bound,
                                            "stretch_within_bound"));
  }

  // Stationarity guard: the delta must not keep growing and the generator
  // must not fall further behind over the window (median lateness of the
  // first and last tenth, so one stall does not count as a backlog).
  if (churn) {
    const auto tenth = static_cast<std::ptrdiff_t>(L.late_us.size() / 10);
    const double late_start =
        pb::median({L.late_us.begin(), L.late_us.begin() + tenth});
    const double late_end =
        pb::median({L.late_us.end() - tenth, L.late_us.end()});
    const bool grew = late_end > late_start + 1000 ||
                      L.last_ack.overrides >
                          2 * std::max<std::int64_t>(
                                  L.first_window_ack.overrides, 64);
    rep.info("stationary", grew ? "no: backlog or delta grew" : "yes");
    rep.info("stationarity",
             "median lateness " + std::to_string(late_start) + " -> " +
                 std::to_string(late_end) + " us, overrides " +
                 std::to_string(L.first_window_ack.overrides) + " -> " +
                 std::to_string(L.last_ack.overrides));
    if (grew) std::fprintf(stderr, "flag: live_churn backlog grew\n");
  }
  rep.info("steal_frac", std::to_string(pb::steal_frac(cpu0, cpu1)));

  if (!c.trace) return;
  rep.metric("bench.steal_frac", pb::steal_frac(cpu0, cpu1));
  rep.metric("serve.map_s", pb::median(booted.map_s));
  rep.metric("serve.image_mb", booted.image_mb);
  const auto rl = pb::replay_reads(fs, pool, spec.frame_queries, c.shards,
                                   c.replay_s);
  report_reads(rep, rl);
  report_net(rep, st, L, rl, spec.frame_queries);
  if (churn) {
    std::vector<std::vector<serve::EdgeUpdate>> acked(
        batches.begin(), batches.begin() + static_cast<std::ptrdiff_t>(batches_sent));
    const auto ul = pb::replay_updates(fs, c.image, acked, pool,
                                       serve::FsyncPolicy::kInterval, c.shards,
                                       c.workdir, c.replay_s);
    report_updates(rep, ul, ack_us, &L);
    const double p50a = pass_median(loads[0], sub_p50);
    const double p50b = pass_median(loads[1], sub_p50);
    rep.metric("bench.trace_overhead_frac", p50a > 0 ? p50b / p50a - 1 : 0);
  } else {
    const auto ul = pb::replay_updates(fs, c.image, batches, pool,
                                       serve::FsyncPolicy::kInterval, c.shards,
                                       c.workdir, c.replay_s);
    report_updates(rep, ul, ack_us, nullptr);
    const double qa = pass_median(loads[0], sub_qps);
    const double qb = pass_median(loads[1], sub_qps);
    rep.metric("bench.trace_overhead_frac", qa > 0 ? 1 - qb / qa : 0);
  }
}

int run_main(const Args& a) {
  Config c;
  if (a.has("smoke")) c.apply_smoke();
  c.workload = a.get("workload");
  c.seed = static_cast<std::uint64_t>(a.num("seed", 1));
  c.seconds = a.num("seconds", 10);
  c.trace = a.num("trace", 0) != 0;
  c.workdir = a.get("workdir", ".");
  c.image = a.get("image");
  c.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  Report rep;
  rep.info("nproc", std::to_string(c.nproc));
  rep.info("shards", std::to_string(c.shards));
  rep.info("build_type", PB_BUILD_TYPE);
  const auto cpu0 = pb::cpu_sample();
  if (c.workload == "construct") {
    run_construct(c, rep);
    const double steal = pb::steal_frac(cpu0, pb::cpu_sample());
    rep.info("steal_frac", std::to_string(steal));
    if (c.trace) rep.metric("bench.steal_frac", steal);
  } else if (c.workload == "wire_read" || c.workload == "live_churn") {
    NORS_CHECK_MSG(!c.image.empty(), "serving workloads need --image");
    run_serving(c, rep);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", c.workload.c_str());
    return 2;
  }
  rep.print();
  return rep.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench image|run --key value ...\n");
    return 2;
  }
  Args a;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
      return 2;
    }
    const char* key = argv[i] + 2;
    const bool has_value =
        i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    a.kv.insert_or_assign(key, has_value ? argv[++i] : "1");
  }
  try {
    const std::string mode = argv[1];
    if (mode == "image") return image_main(a);
    if (mode == "run") return run_main(a);
    std::fprintf(stderr, "unknown mode '%s'\n", argv[1]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
