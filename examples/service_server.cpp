// Entrypoint for the solver service, in two modes.
//
// Daemon mode — the networked front-end (src/net/):
//
//   build/examples/service_server serve [--port 8080] [--bind 127.0.0.1]
//       [--solve-threads N] [--job-threads N] [--queue-depth N]
//       [--cache-capacity N] [--retained-jobs N] [--max-body-mb N]
//       [--panel-width N] [--store-mb N] [--retained-slow K]
//
// --panel-width N sets how many right-hand sides share one compiled-
// program sweep (the multi-RHS panel executor; default 8, small powers
// of two vectorize best). 0 or 1 replays one one-lane panel per RHS.
// --store-mb N sets the byte budget of the content-addressed matrix
// store behind PUT /v1/matrices (default 512; clamped up so one
// max-dimension matrix always fits).
//
// serves POST /v1/jobs (JSON or binary application/x-mpqls-frame),
// GET /v1/jobs/{id}[/result], PUT /v1/matrices, /v1/healthz and
// /v1/metrics until SIGINT/SIGTERM, then drains: admission closes (503),
// in-flight jobs finish while clients keep polling, and the server stops.
// `--port 0` picks an ephemeral port (printed on stdout).
//
// Cluster mode — a coordinator sharding jobs across worker daemons by
// matrix-fingerprint affinity (src/cluster/):
//
//   build/examples/service_server cluster --workers 3 [--port 8080]
//   build/examples/service_server cluster --worker-url 10.0.0.2:8080
//       --worker-url 10.0.0.3:8080 [--port 8080] [--random-routing]
//
// --workers N spins up N in-process worker daemons on ephemeral ports
// (the single-binary demo); --worker-url fronts externally started
// `service_server serve` daemons. The coordinator serves the same job
// API plus aggregated metrics, and drains on SIGINT/SIGTERM.
//
// Batch mode — run a JSON job file in-process and exit:
//
//   build/examples/service_server [jobs.json] [--trace out.json]
//   build/examples/service_server --emit-jobs examples/jobs/mixed.json
//
// Without a job file the embedded default workload runs; --emit-jobs
// writes that workload out (it is the source examples/jobs/mixed.json is
// generated from, so the two cannot drift). Jobs that share a matrix and
// QSVT configuration hit the context cache: circuit synthesis happens
// once.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/test_cluster.hpp"
#include "common/io.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "net/daemon.hpp"
#include "service/json_io.hpp"
#include "service/solver_service.hpp"

namespace {

constexpr const char* kDefaultJobs = R"JSON({
  "jobs": [
    {
      "id": "poisson1d-16-gate",
      "matrix": {"scenario": "poisson1d", "n": 16},
      "rhs": {"kind": "random", "count": 2, "seed": 11},
      "options": {"eps": 1e-9, "qsvt": {"backend": "gate", "eps_l": 2e-2}}
    },
    {
      "id": "poisson1d-16-gate-again",
      "matrix": {"scenario": "poisson1d", "n": 16},
      "rhs": {"kind": "point", "index": 7},
      "options": {"eps": 1e-9, "qsvt": {"backend": "gate", "eps_l": 2e-2}}
    },
    {
      "id": "poisson2d-8x8-matrix",
      "matrix": {"scenario": "poisson2d", "nx": 8, "ny": 8},
      "rhs": {"kind": "point", "index": 28},
      "options": {"eps": 1e-10, "qsvt": {"backend": "matrix", "eps_l": 2e-2}}
    },
    {
      "id": "tridiag-8-banded-encoding",
      "matrix": {"scenario": "tridiagonal", "n": 8},
      "rhs": {"kind": "random", "count": 2, "seed": 12},
      "options": {"eps": 1e-8, "qsvt": {"backend": "gate", "encoding": "tridiagonal", "eps_l": 5e-2}}
    },
    {
      "id": "random-16-k10-single-precision",
      "matrix": {"scenario": "random", "n": 16, "kappa": 10.0, "seed": 3},
      "rhs": {"kind": "random", "count": 3, "seed": 13},
      "options": {"eps": 1e-6, "qsvt": {"backend": "gate", "precision": "single", "eps_l": 1e-2}}
    },
    {
      "id": "random-16-k10-double-precision",
      "matrix": {"scenario": "random", "n": 16, "kappa": 10.0, "seed": 3},
      "rhs": {"kind": "random", "count": 3, "seed": 14},
      "options": {"eps": 1e-11, "qsvt": {"backend": "gate", "precision": "double", "eps_l": 1e-2}}
    },
    {
      "id": "random-16-k100-matrix",
      "matrix": {"scenario": "random", "n": 16, "kappa": 100.0, "seed": 4},
      "rhs": {"kind": "random", "count": 2, "seed": 15},
      "options": {"eps": 1e-10, "qsvt": {"backend": "matrix", "eps_l": 1e-3}}
    },
    {
      "id": "random-16-k10-shot-readout",
      "matrix": {"scenario": "random", "n": 16, "kappa": 10.0, "seed": 5},
      "rhs": {"kind": "random", "count": 1, "seed": 16},
      "options": {"eps": 1e-2, "max_iterations": 25,
                  "qsvt": {"backend": "matrix", "eps_l": 1e-2, "shots": 1000000, "seed": 99}}
    }
  ]
})JSON";

/// `--flag value` parser for the serve subcommand; exits on bad usage —
/// a typo must not silently become 0 (for --queue-depth that would mean
/// "admission control off").
std::size_t flag_value(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", flag);
    std::exit(2);
  }
  const char* text = argv[++*i];
  char* end = nullptr;
  errno = 0;
  // Digits only up front: strtoull would silently wrap "-64" to ~2^64.
  const unsigned long long v =
      (text[0] >= '0' && text[0] <= '9') ? std::strtoull(text, &end, 10) : 0;
  if (end == nullptr || end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: not a number: %s\n", flag, text);
    std::exit(2);
  }
  return static_cast<std::size_t>(v);
}

/// Block SIGINT/SIGTERM so the caller can take them synchronously with
/// sigwait(&mask) — call before starting any daemon (spawned threads
/// inherit the mask). Returns false if the mask could not be installed.
bool block_shutdown_signals(sigset_t* mask) {
  sigemptyset(mask);
  sigaddset(mask, SIGINT);
  sigaddset(mask, SIGTERM);
  return pthread_sigmask(SIG_BLOCK, mask, nullptr) == 0;
}

int run_daemon(int argc, char** argv) {
  using namespace mpqls;

  net::DaemonOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      const std::size_t port = flag_value(argc, argv, &i, "--port");
      if (port > 65535) {
        std::fprintf(stderr, "--port: out of range: %zu\n", port);
        return 2;
      }
      options.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--bind") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--bind needs an address\n");
        return 2;
      }
      options.bind_address = argv[++i];
    } else if (arg == "--solve-threads") {
      options.service.solve_threads = flag_value(argc, argv, &i, "--solve-threads");
    } else if (arg == "--job-threads") {
      options.service.job_threads = flag_value(argc, argv, &i, "--job-threads");
    } else if (arg == "--queue-depth") {
      options.service.max_pending_jobs = flag_value(argc, argv, &i, "--queue-depth");
    } else if (arg == "--cache-capacity") {
      options.service.cache_capacity = flag_value(argc, argv, &i, "--cache-capacity");
    } else if (arg == "--retained-jobs") {
      options.service.retained_jobs = flag_value(argc, argv, &i, "--retained-jobs");
    } else if (arg == "--retained-slow") {
      options.service.slow_jobs_retained = flag_value(argc, argv, &i, "--retained-slow");
    } else if (arg == "--panel-width") {
      options.service.panel_width = flag_value(argc, argv, &i, "--panel-width");
    } else if (arg == "--store-mb") {
      options.service.matrix_store_bytes = flag_value(argc, argv, &i, "--store-mb") << 20;
    } else if (arg == "--max-body-mb") {
      options.limits.max_body_bytes = flag_value(argc, argv, &i, "--max-body-mb") << 20;
    } else {
      std::fprintf(stderr, "unknown serve flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // Block the shutdown signals before the daemon spawns threads (they
  // inherit the mask), then take them synchronously with sigwait: the
  // drain runs on the main thread with no async-signal-safety caveats.
  sigset_t mask;
  if (!block_shutdown_signals(&mask)) {
    std::fprintf(stderr, "pthread_sigmask failed\n");
    return 2;
  }

  net::SolverDaemon daemon(options);
  daemon.start();
  std::printf("solver daemon listening on %s:%u\n", options.bind_address.c_str(),
              static_cast<unsigned>(daemon.port()));
  std::printf(
      "  POST /v1/jobs | GET /v1/jobs/{id}[/result|/trace] | PUT /v1/matrices | "
      "GET /v1/debug/slow | GET /v1/healthz | GET /v1/metrics\n");
  std::fflush(stdout);

  int sig = 0;
  if (sigwait(&mask, &sig) != 0) {
    std::fprintf(stderr, "sigwait failed\n");
    return 2;
  }
  std::printf("received %s, draining (in-flight jobs finish, polls keep working)...\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);

  const bool drained = daemon.drain();
  const auto queue = daemon.service().queue_stats();
  std::printf("drained %s: %llu done, %llu failed, %llu rejected\n",
              drained ? "cleanly" : "with timeout",
              static_cast<unsigned long long>(queue.done),
              static_cast<unsigned long long>(queue.failed),
              static_cast<unsigned long long>(queue.rejected));
  if (!drained) {
    // Past the grace window the timeout must mean something: returning
    // normally would run ~ThreadPool, which drains every remaining queued
    // job to completion (and further signals stay blocked) — exit hard
    // instead and let the OS reclaim.
    std::fflush(stdout);
    std::_Exit(1);
  }
  return 0;
}

int run_cluster(int argc, char** argv) {
  using namespace mpqls;

  std::size_t inprocess_workers = 0;
  cluster::CoordinatorOptions coordinator;
  coordinator.port = 8080;
  net::DaemonOptions worker;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      const std::size_t port = flag_value(argc, argv, &i, "--port");
      if (port > 65535) {
        std::fprintf(stderr, "--port: out of range: %zu\n", port);
        return 2;
      }
      coordinator.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--bind") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--bind needs an address\n");
        return 2;
      }
      coordinator.bind_address = argv[++i];
    } else if (arg == "--workers") {
      inprocess_workers = flag_value(argc, argv, &i, "--workers");
    } else if (arg == "--worker-url") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--worker-url needs host:port\n");
        return 2;
      }
      coordinator.worker_urls.push_back(argv[++i]);
    } else if (arg == "--random-routing") {
      coordinator.affinity_routing = false;
    } else if (arg == "--proxy-threads") {
      coordinator.proxy_threads = flag_value(argc, argv, &i, "--proxy-threads");
    } else if (arg == "--solve-threads") {
      worker.service.solve_threads = flag_value(argc, argv, &i, "--solve-threads");
    } else if (arg == "--job-threads") {
      worker.service.job_threads = flag_value(argc, argv, &i, "--job-threads");
    } else if (arg == "--queue-depth") {
      worker.service.max_pending_jobs = flag_value(argc, argv, &i, "--queue-depth");
    } else if (arg == "--cache-capacity") {
      worker.service.cache_capacity = flag_value(argc, argv, &i, "--cache-capacity");
    } else if (arg == "--retained-jobs") {
      worker.service.retained_jobs = flag_value(argc, argv, &i, "--retained-jobs");
    } else if (arg == "--retained-slow") {
      worker.service.slow_jobs_retained = flag_value(argc, argv, &i, "--retained-slow");
    } else if (arg == "--panel-width") {
      worker.service.panel_width = flag_value(argc, argv, &i, "--panel-width");
    } else if (arg == "--store-mb") {
      worker.service.matrix_store_bytes = flag_value(argc, argv, &i, "--store-mb") << 20;
    } else if (arg == "--max-body-mb") {
      worker.limits.max_body_bytes = flag_value(argc, argv, &i, "--max-body-mb") << 20;
      coordinator.limits.max_body_bytes = worker.limits.max_body_bytes;
    } else {
      std::fprintf(stderr, "unknown cluster flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if ((inprocess_workers > 0) == !coordinator.worker_urls.empty()) {
    std::fprintf(stderr, "cluster mode needs exactly one of --workers N or --worker-url ...\n");
    return 2;
  }

  sigset_t mask;
  if (!block_shutdown_signals(&mask)) {
    std::fprintf(stderr, "pthread_sigmask failed\n");
    return 2;
  }

  const auto banner = [](const cluster::Coordinator& c, const char* kind) {
    std::printf("cluster coordinator (%s, %zu workers) listening on port %u\n", kind,
                c.worker_count(), static_cast<unsigned>(c.port()));
    std::printf("  POST /v1/jobs | GET /v1/jobs[/{id}[/result]] | DELETE /v1/jobs/{id} | "
                "PUT /v1/matrices | /v1/healthz | /v1/metrics\n");
    std::fflush(stdout);
  };
  const auto summary = [](const cluster::Coordinator& c) {
    const auto stats = c.routing_stats();
    std::printf("routing: %llu accepted (%llu affinity, %llu spillover), %llu retries\n",
                static_cast<unsigned long long>(stats.submits_accepted),
                static_cast<unsigned long long>(stats.affinity_hits),
                static_cast<unsigned long long>(stats.spillovers),
                static_cast<unsigned long long>(stats.retries));
  };

  int sig = 0;
  if (inprocess_workers > 0) {
    cluster::TestClusterOptions options;
    options.workers = inprocess_workers;
    options.worker = worker;
    options.coordinator = coordinator;
    cluster::TestCluster clusterd(options);
    banner(clusterd.coordinator(), "in-process workers");
    if (sigwait(&mask, &sig) != 0) return 2;
    std::printf("received %s, stopping coordinator and draining workers...\n",
                sig == SIGTERM ? "SIGTERM" : "SIGINT");
    std::fflush(stdout);
    summary(clusterd.coordinator());
    clusterd.stop();
  } else {
    cluster::Coordinator coordinatord(coordinator);
    coordinatord.start();
    banner(coordinatord, "external workers");
    if (sigwait(&mask, &sig) != 0) return 2;
    std::printf("received %s, stopping coordinator (workers keep running)...\n",
                sig == SIGTERM ? "SIGTERM" : "SIGINT");
    std::fflush(stdout);
    summary(coordinatord);
    coordinatord.stop();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace mpqls;

  if (argc >= 2 && std::string(argv[1]) == "serve") return run_daemon(argc, argv);
  if (argc >= 2 && std::string(argv[1]) == "cluster") return run_cluster(argc, argv);

  std::string jobs_text = kDefaultJobs;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--emit-jobs" && i + 1 < argc) {
      const char* path = argv[++i];
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot write job file: %s\n", path);
        return 2;
      }
      // Normalized through the parser so the emitted file is valid JSON.
      out << Json::parse(kDefaultJobs).dump(2) << "\n";
      std::printf("default jobs written to %s\n", path);
      return 0;
    } else {
      auto text = read_text_file(arg);
      if (!text) {
        std::fprintf(stderr, "cannot open job file: %s\n", arg.c_str());
        return 2;
      }
      jobs_text = *std::move(text);
    }
  }

  const auto jobs = service::jobs_from_json(Json::parse(jobs_text));
  std::printf("service_server: %zu jobs\n\n", jobs.size());

  service::SolverService svc({.cache_capacity = 8, .solve_threads = 0, .job_threads = 2});

  Timer wall;
  std::vector<std::future<service::SolveResult>> pending;
  pending.reserve(jobs.size());
  for (const auto& job : jobs) pending.push_back(svc.submit(job));

  Json trace = Json::array();
  TextTable table({"job", "n", "rhs", "cache", "prep (ms)", "program", "compile (ms)",
                   "solve (ms)", "residual", "ok"});
  bool all_ok = true;
  for (std::size_t j = 0; j < pending.size(); ++j) {
    const auto result = pending[j].get();
    double solve_ms = 0.0, worst_residual = 0.0;
    for (const auto& s : result.solves) {
      solve_ms += s.solve_seconds * 1e3;
      worst_residual = std::max(worst_residual, s.report.scaled_residuals.back());
    }
    // Compiled-program telemetry is per context, so any solve reports it.
    const auto& rep0 = result.solves.front().report;
    const std::string program =
        rep0.program_ops == 0 ? "-"
                              : std::to_string(rep0.program_source_gates) + "->" +
                                    std::to_string(rep0.program_ops) + " ops";
    table.add_row({result.id, std::to_string(jobs[j].A.rows()),
                   std::to_string(result.solves.size()), result.cache_hit ? "hit" : "miss",
                   fmt_fix(result.prepare_seconds * 1e3, 1), program,
                   rep0.program_ops == 0 ? "-" : fmt_fix(rep0.program_compile_seconds * 1e3, 1),
                   fmt_fix(solve_ms, 1), fmt_sci(worst_residual),
                   result.all_converged ? "yes" : "NO"});
    all_ok = all_ok && result.all_converged;
    trace.push_back(service::to_json(result));
  }
  table.print(std::cout);

  const auto cache = svc.cache_stats();
  const auto stats = svc.stats();
  std::printf("\n%llu jobs, %llu right-hand sides in %.1f ms wall\n",
              static_cast<unsigned long long>(stats.jobs),
              static_cast<unsigned long long>(stats.rhs_solved), wall.milliseconds());
  std::printf("context cache: %llu hits, %llu misses, %llu evictions, %zu resident\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions), cache.size);
  if (stats.panels_executed > 0) {
    std::printf("panel executor: %llu panels, %llu lanes (%.1f lanes/panel)\n",
                static_cast<unsigned long long>(stats.panels_executed),
                static_cast<unsigned long long>(stats.panel_lanes_total),
                static_cast<double>(stats.panel_lanes_total) /
                    static_cast<double>(stats.panels_executed));
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write trace file: %s\n", trace_path.c_str());
      return 2;
    }
    out << trace.dump(2) << "\n";
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  return all_ok ? 0 : 1;
} catch (const std::exception& e) {
  // Bad job files and failed preparations (e.g. singular matrices) land
  // here; report cleanly instead of std::terminate.
  std::fprintf(stderr, "service_server: %s\n", e.what());
  return 2;
}
