// route_serviced — the network daemon over the frozen serving stack
// (DESIGN.md §11): mmap (or generate) a NORSFRZ1 image, serve the wire
// protocol of net/wire.h on TCP, and speak the usual daemon signal
// language:
//
//   SIGTERM / SIGINT   graceful drain: stop accepting, answer every frame
//                      already parsed, flush, close, exit 0
//   SIGHUP             reload: re-map the image file and atomically swap
//                      it under serving; in-flight batches finish on the
//                      old image, no response is dropped
//
// Live tables (DESIGN.md §13): edge updates reach a running daemon two
// ways. --updates=FILE replays a journal of `commit`-separated batches at
// boot (each batch is published as one delta generation, its DeltaStats
// logged), and the serving socket itself accepts kUpdate admin frames at
// any time (net::Client::update / route_client --fail-edge), so the
// update path and the query path share one port, one protocol, and one
// generation mechanism. SIGHUP re-maps the image file and *drops* the
// accumulated deltas — a reload is the "new ground truth" event.
//
// Flags:
//   --image=PATH       serve this frozen image (reloaded on SIGHUP)
//   --generate-n=N     no image? generate a connected G(n, 3n) workload,
//   --generate-k=K     build the scheme, freeze it, and save the image to
//   --seed=S           route_serviced_<pid>.frozen so SIGHUP still works
//   --host= --port=    bind address (default 127.0.0.1:0 = ephemeral)
//   --loops=L          epoll event loops   (default 1)
//   --shards=K         route shards        (default 1)
//   --cache=C          per-worker table-cache entries (default 4096)
//   --window=W         per-connection in-flight frame window (default 64)
//   --updates=FILE     replay this edge-update journal at boot (see
//                      serve/delta.h for the line format); alias:
//                      --import-updates=FILE — with --wal the imported
//                      batches are logged like any other update
//
// Durability + replication (DESIGN.md §14):
//   --wal=DIR            write-ahead-log directory: admitted updates are
//                        appended + synced before they are published, and
//                        boot replays the log so a rebooted (even
//                        SIGKILLed) daemon serves exactly what it
//                        acknowledged
//   --fsync=POLICY       always | interval | off   (default always)
//   --fsync-interval-ms=N  sync cadence for --fsync=interval (default 100)
//   --checkpoint-every=N checkpoint after every N applied batches:
//                        squash the delta chain into one snapshot WAL
//                        record, rebuild the image file with the weight
//                        overrides baked in, truncate the log (also
//                        triggerable any time via route_client
//                        --checkpoint)
//   --replica-of=H:P     follow the primary at H:P as a read-only
//                        replica: subscribe, apply its stream, serve
//                        reads, reject kUpdate with kReadOnly
//
// Overload / failure-domain knobs (DESIGN.md §12):
//   --budget=Q         global in-flight query budget (default 262144;
//                      0 = unlimited) — excess kRoute frames are shed
//                      with a recoverable kOverloaded + retry hint
//   --pending=P        per-loop pending-response cap (default 4096)
//   --deadline-ms=D    per-connection request deadline (default 30000)
//   --stall-ms=S       slow-peer write-stall timeout (default 10000)
//   --retry-after-ms=R retry hint carried by kOverloaded (default 25)
//
// Fault injection: set NORS_FAILPOINTS=name:mode:rate[:arg][,...] in the
// environment (util/failpoint.h) to exercise the failure paths end to end
// — CI's chaos smoke leg boots the daemon this way.
//
// Prints exactly one "route_serviced listening on HOST:PORT" line once
// the socket is bound — scripts (CI's smoke leg) wait for it.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/scheme.h"
#include "graph/generators.h"
#include "net/server.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "util/random.h"

namespace {

using namespace nors;

struct Flags {
  std::string image;
  std::string updates;
  std::string wal;
  std::string fsync = "always";
  std::string replica_of;
  int fsync_interval_ms = 100;
  long long checkpoint_every = 0;
  std::string host = "127.0.0.1";
  int port = 0;
  int generate_n = 0;
  int generate_k = 2;
  std::uint64_t seed = 17;
  int loops = 1;
  int shards = 1;
  int cache = 4096;
  int window = 64;
  // Daemon defaults are protective (unlike the library's opt-in zeros): a
  // long-lived service should shed rather than queue without bound.
  long long budget = 262144;
  int pending = 4096;
  int deadline_ms = 30000;
  int stall_ms = 10000;
  int retry_after_ms = 25;
};

[[noreturn]] void usage(const char* bad) {
  std::fprintf(stderr,
               "unknown flag %s\nusage: route_serviced [--image=PATH | "
               "--generate-n=N --generate-k=K --seed=S] [--host=H] "
               "[--port=P] [--loops=L] [--shards=K] [--cache=C] "
               "[--window=W] [--updates=FILE | --import-updates=FILE] "
               "[--wal=DIR] [--fsync=always|interval|off] "
               "[--fsync-interval-ms=N] [--checkpoint-every=N] "
               "[--replica-of=HOST:PORT] [--budget=Q] [--pending=P] "
               "[--deadline-ms=D] [--stall-ms=S] [--retry-after-ms=R]\n",
               bad);
  std::exit(2);
}

Flags parse(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&a](const char* key) -> const char* {
      const std::size_t len = std::strlen(key);
      return a.compare(0, len, key) == 0 ? a.c_str() + len : nullptr;
    };
    if (const char* v = val("--image=")) {
      f.image = v;
    } else if (const char* v = val("--updates=")) {
      f.updates = v;
    } else if (const char* v = val("--import-updates=")) {
      f.updates = v;  // the text journal is the WAL's import door
    } else if (const char* v = val("--wal=")) {
      f.wal = v;
    } else if (const char* v = val("--fsync=")) {
      f.fsync = v;
    } else if (const char* v = val("--fsync-interval-ms=")) {
      f.fsync_interval_ms = std::atoi(v);
    } else if (const char* v = val("--checkpoint-every=")) {
      f.checkpoint_every = std::atoll(v);
    } else if (const char* v = val("--replica-of=")) {
      f.replica_of = v;
    } else if (const char* v = val("--host=")) {
      f.host = v;
    } else if (const char* v = val("--port=")) {
      f.port = std::atoi(v);
    } else if (const char* v = val("--generate-n=")) {
      f.generate_n = std::atoi(v);
    } else if (const char* v = val("--generate-k=")) {
      f.generate_k = std::atoi(v);
    } else if (const char* v = val("--seed=")) {
      f.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--loops=")) {
      f.loops = std::atoi(v);
    } else if (const char* v = val("--shards=")) {
      f.shards = std::atoi(v);
    } else if (const char* v = val("--cache=")) {
      f.cache = std::atoi(v);
    } else if (const char* v = val("--window=")) {
      f.window = std::atoi(v);
    } else if (const char* v = val("--budget=")) {
      f.budget = std::atoll(v);
    } else if (const char* v = val("--pending=")) {
      f.pending = std::atoi(v);
    } else if (const char* v = val("--deadline-ms=")) {
      f.deadline_ms = std::atoi(v);
    } else if (const char* v = val("--stall-ms=")) {
      f.stall_ms = std::atoi(v);
    } else if (const char* v = val("--retry-after-ms=")) {
      f.retry_after_ms = std::atoi(v);
    } else {
      usage(a.c_str());
    }
  }
  if (f.image.empty() && f.generate_n < 4) {
    std::fprintf(stderr,
                 "need --image=PATH or --generate-n=N (N >= 4)\n");
    std::exit(2);
  }
  if (!f.replica_of.empty() && !f.updates.empty()) {
    std::fprintf(stderr,
                 "--replica-of excludes --updates/--import-updates: a "
                 "replica's state comes from its primary\n");
    std::exit(2);
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = parse(argc, argv);

  // Block the control signals process-wide *before* the server spawns its
  // threads, so every thread inherits the mask and sigwait below is the
  // only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  try {
    if (flags.image.empty()) {
      // Generated mode: build → freeze → save, then serve the *file* so
      // SIGHUP has something to re-map.
      std::fprintf(stderr,
                   "generating n=%d k=%d seed=%llu workload...\n",
                   flags.generate_n, flags.generate_k,
                   static_cast<unsigned long long>(flags.seed));
      util::Rng rng(flags.seed);
      const auto g = graph::connected_gnm(
          flags.generate_n, 3LL * flags.generate_n,
          graph::WeightSpec::uniform(1, 32), rng);
      core::SchemeParams params;
      params.k = flags.generate_k;
      params.seed = flags.seed + 1;
      const auto scheme = core::RoutingScheme::build(g, params);
      flags.image = "route_serviced_" + std::to_string(::getpid()) +
                    ".frozen";
      serve::FrozenScheme::freeze(scheme).save_file(flags.image);
      std::fprintf(stderr, "image saved to %s\n", flags.image.c_str());
    }

    net::NetServerOptions opt;
    opt.host = flags.host;
    opt.port = flags.port;
    opt.loops = flags.loops;
    opt.shards = flags.shards;
    opt.cache_entries = flags.cache;
    opt.window = flags.window;
    opt.max_inflight_queries = flags.budget;
    opt.max_pending_per_loop = flags.pending;
    opt.request_deadline_ms = flags.deadline_ms;
    opt.stall_timeout_ms = flags.stall_ms;
    opt.retry_after_ms = flags.retry_after_ms;
    opt.wal_dir = flags.wal;
    opt.fsync = serve::parse_fsync_policy(flags.fsync);
    opt.fsync_interval_ms =
        static_cast<std::uint32_t>(std::max(1, flags.fsync_interval_ms));
    opt.checkpoint_every = flags.checkpoint_every;
    opt.image_path = flags.image;  // checkpoint rebuilds the served file
    opt.replica_of = flags.replica_of;
    net::Server server(serve::FrozenScheme::map(flags.image), opt);

    if (!flags.updates.empty() && !flags.wal.empty() &&
        server.stats().update_seq > 0) {
      // The WAL already holds recovered state: importing the journal
      // again would re-apply (and re-log) it on every reboot. The
      // import is a one-time seeding door, not a boot ritual.
      std::fprintf(stderr,
                   "skipping --updates import: WAL recovered to seq %lld\n",
                   static_cast<long long>(server.stats().update_seq));
      flags.updates.clear();
    }
    if (!flags.updates.empty()) {
      // Replay before announcing the port, so scripts that wait for the
      // listening line observe a daemon already on the journal's head
      // generation.
      const auto batches = serve::load_update_journal(flags.updates);
      for (const auto& batch : batches) {
        const auto ack = server.apply_updates(batch);
        std::fprintf(stderr,
                     "updates: gen %llu — %lld applied, %lld unknown, "
                     "%lld overrides, %lld failed links, %lld masked "
                     "trees, %zu delta bytes\n",
                     static_cast<unsigned long long>(ack.seq),
                     static_cast<long long>(ack.applied),
                     static_cast<long long>(ack.unknown_edges),
                     static_cast<long long>(ack.overrides),
                     static_cast<long long>(ack.failed_links),
                     static_cast<long long>(ack.masked_trees),
                     server.delta_bytes());
      }
    }

    std::printf("route_serviced listening on %s:%d\n", flags.host.c_str(),
                server.port());
    std::fflush(stdout);

    for (;;) {
      int sig = 0;
      if (sigwait(&sigs, &sig) != 0) continue;
      if (sig == SIGHUP) {
        try {
          server.reload_file(flags.image);
          std::fprintf(stderr, "reloaded %s\n", flags.image.c_str());
        } catch (const std::exception& e) {
          // A broken image on disk must not take serving down; keep the
          // current generation and say why.
          std::fprintf(stderr, "reload failed, keeping old image: %s\n",
                       e.what());
        }
        continue;
      }
      std::fprintf(stderr, "signal %d: draining...\n", sig);
      server.drain();
      break;
    }
    const auto s = server.stats();
    std::fprintf(stderr,
                 "drained: %lld conns, %lld frames in, %lld queries, "
                 "%lld protocol errors, %lld shed, %lld timeouts, "
                 "%lld stalls, %lld updates, %lld masked, %lld repaired, "
                 "seq %lld, %lld wal records, %lld wal errors, "
                 "%lld checkpoints, %lld repl applied\n",
                 static_cast<long long>(s.conns_accepted),
                 static_cast<long long>(s.frames_in),
                 static_cast<long long>(s.queries),
                 static_cast<long long>(s.protocol_errors),
                 static_cast<long long>(s.shed),
                 static_cast<long long>(s.timeouts),
                 static_cast<long long>(s.stalls),
                 static_cast<long long>(s.updates),
                 static_cast<long long>(s.masked),
                 static_cast<long long>(s.repaired),
                 static_cast<long long>(s.update_seq),
                 static_cast<long long>(s.wal_records),
                 static_cast<long long>(s.wal_errors),
                 static_cast<long long>(s.checkpoints),
                 static_cast<long long>(s.repl_applied));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "route_serviced: fatal: %s\n", e.what());
    return 1;
  }
}
