// perf_e2e — the repository's end-to-end benchmark. One process starts the
// real front door in process (a SolverDaemon with default options, or a
// coordinator with two workers for the shard-group workload), drives it
// over loopback HTTP with a closed loop of blocking clients for a fixed
// window, verifies every result against the bench's own system and prints
// its metrics by name and unit. The last stdout line is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
//   perf_e2e --workload <name> --seed <s> [--seconds <t>] [--trace-dir <dir>]
//
// A plain run reports the end-to-end metrics. With --trace-dir the run
// reports the per-layer metrics instead: it splits the window into an
// untraced and a traced half, records bench-side spans around every
// submit, poll and job, stitches each job's server trace under them, runs
// the in-process layer probes and writes <dir>/trace_<workload>.json.
// Exits 1 when any job failed (after printing the result line).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loop.hpp"
#include "measure.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace mpqls;
using namespace mpqls::bench::e2e;

/// Set-ups per plain run; setup_s is their median.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_dir;  ///< empty = plain run
};

/// Jobs run and jobs failed, across set-up and measurement alike.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(const Window& win) {
    for (const auto& jobs : win.clients) {
      for (const auto& job : jobs) {
        ++attempted;
        if (job.ok()) continue;
        if (++failed <= 5) std::fprintf(stderr, "perf_e2e: job failed: %s\n", job.error.c_str());
      }
    }
  }
};

/// Latencies of the successful jobs that finished inside the window.
std::vector<double> latencies(const Window& win) {
  std::vector<double> out;
  for (const auto& jobs : win.clients) {
    for (const auto& job : jobs) {
      if (job.ok() && job.end_s <= win.seconds) out.push_back(job.latency_s);
    }
  }
  return out;
}

/// Right-hand sides per second: each client's RHS from jobs finished inside
/// the window over the time from the window's start to the last of them,
/// summed over clients. Dividing by each client's own span rather than the
/// window length removes the quantization of a window that cuts a job off.
double rhs_rate(const Window& win) {
  double rate = 0.0;
  for (const auto& jobs : win.clients) {
    double rhs = 0.0, last = 0.0;
    for (const auto& job : jobs) {
      if (!job.ok() || job.end_s > win.seconds) continue;
      rhs += static_cast<double>(job.rhs);
      last = std::max(last, job.end_s);
    }
    if (last > 0.0) rate += rhs / last;
  }
  return rate;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Summed shard-exchange telemetry of every solving service.
struct DistTotals {
  double jobs = 0.0;
  double exchange_s = 0.0;
  double local_s = 0.0;
};

DistTotals dist_totals(FrontDoor& door) {
  DistTotals t;
  for (const auto* svc : door.services()) {
    const auto d = svc->stats().dist;
    t.jobs += static_cast<double>(d.jobs);
    t.exchange_s += d.exchange_seconds;
    t.local_s += d.local_seconds;
  }
  return t;
}

void plain_run(const Workload& w, const Args& args,
               const std::shared_ptr<const linalg::Matrix<double>>& matrix, Tally& tally,
               MetricSet& m) {
  std::vector<double> setups;
  Window win;
  double peak_rss = 0.0;
  {
    Setup live = set_up(w, args.seed, matrix);
    setups.push_back(live.seconds);
    tally.add(live.warmup);
    win = run_window(w, args.seed, live.target, args.seconds, 1, /*traced=*/false);
    tally.add(win);
    // Read before the repeat set-ups below: their allocations would add
    // to the high-water mark without being part of the served system.
    peak_rss = peak_rss_mib();
  }
  for (int k = 1; k < kSetupReps; ++k) {
    const Setup again = set_up(w, args.seed, matrix);
    setups.push_back(again.seconds);
    tally.add(again.warmup);
  }

  const std::vector<double> lat = latencies(win);
  m.add("rhs_per_s", rhs_rate(win), "RHS/s");
  m.add("job_p50_s", median(lat), "s");
  m.add("setup_s", median(setups), "s");
  m.add("peak_rss_mb", peak_rss, "MiB");

  // A tail percentile is reported only with at least ten samples beyond it.
  std::printf("jobs finished in the %.1f s window: %zu\n", args.seconds, lat.size());
  if (lat.size() >= 100) {
    std::printf("job_p90_s: %.6g s\n", quantile(lat, 0.9));
  } else {
    std::printf("job_p90_s: not reported (%zu jobs; needs 100)\n", lat.size());
  }
}

void traced_run(const Workload& w, const Args& args,
                const std::shared_ptr<const linalg::Matrix<double>>& matrix, Tally& tally,
                MetricSet& m) {
  Setup live = set_up(w, args.seed, matrix);
  tally.add(live.warmup);
  const double half = args.seconds / 2.0;

  const double cpu0 = cpu_seconds();
  const auto wall0 = Clock::now();
  const Window plain = run_window(w, args.seed, live.target, half, 1, /*traced=*/false);
  const double cpu_util = (cpu_seconds() - cpu0) /
                          (seconds_between(wall0, Clock::now()) *
                           static_cast<double>(std::thread::hardware_concurrency()));

  const DistTotals dist0 = dist_totals(*live.door);
  const Window traced =
      run_window(w, args.seed, live.target, half, kTracedIndexBase, /*traced=*/true);
  const DistTotals dist1 = dist_totals(*live.door);
  tally.add(plain);
  tally.add(traced);

  std::vector<const JobOutcome*> jobs;
  for (const auto& client : traced.clients) {
    for (const auto& job : client) {
      if (job.ok()) jobs.push_back(&job);
    }
  }
  const auto per_job = [&jobs](auto&& pick) {
    std::vector<double> v;
    for (const JobOutcome* job : jobs) v.push_back(pick(*job));
    return v;
  };

  std::vector<double> polls;
  for (const JobOutcome* job : jobs) polls.insert(polls.end(), job->poll_s.begin(), job->poll_s.end());
  m.add("net.submit_s", median(per_job([](const JobOutcome& j) { return j.submit_s; })), "s");
  m.add("net.poll_s", median(polls), "s");
  m.add("net.polls_per_job",
        mean(per_job([](const JobOutcome& j) { return static_cast<double>(j.poll_s.size()); })),
        "count");
  m.add("net.result_bytes",
        median(per_job([](const JobOutcome& j) { return static_cast<double>(j.result_bytes); })),
        "bytes");

  m.add("service.queue_s", median(per_job([](const JobOutcome& j) { return j.queue_s; })), "s");
  m.add("service.run_s", median(per_job([](const JobOutcome& j) { return j.run_s; })), "s");
  m.add("service.prepare_s", median(per_job([](const JobOutcome& j) { return j.prepare_s; })),
        "s");
  m.add("service.render_s",
        median(per_job([](const JobOutcome& j) { return span_seconds(j.trace, {"render"}); })),
        "s");
  m.add("service.cache_hit_ratio",
        mean(per_job([](const JobOutcome& j) { return j.cache_hit ? 1.0 : 0.0; })), "ratio");
  // The service groups a job's right-hand sides into panels of its
  // configured width, doubled for adaptive jobs; occupancy is lanes carried
  // per sweep over the lanes the first sweep of a panel started with.
  const double width = static_cast<double>(std::min<std::size_t>(
      w.rhs_per_job, service::ServiceOptions{}.panel_width * (w.adaptive ? 2 : 1)));
  double lanes = 0.0, sweeps = 0.0;
  for (const JobOutcome* job : jobs) {
    lanes += static_cast<double>(job->panel_lanes);
    sweeps += static_cast<double>(job->panels);
  }
  m.add("service.lane_occupancy", sweeps > 0.0 ? lanes / (sweeps * width) : 0.0, "ratio");

  // Exact counts come from the first measured job of client 0, whose
  // inputs depend on the seed alone.
  const JobOutcome* first =
      !plain.clients[0].empty() && plain.clients[0][0].ok() ? &plain.clients[0][0] : nullptr;
  m.add("solver.iterations", first ? first->iterations : 0.0, "count");
  const char* tiers[] = {"half", "single", "double"};
  for (int t = 0; t < 3; ++t) {
    m.add(std::string("solver.tier_solves.") + tiers[t],
          first ? static_cast<double>(first->tier_solves[t]) : 0.0, "count");
  }
  const auto replay = per_job([](const JobOutcome& j) { return span_seconds(j.trace, {"replay"}); });
  const auto dd128 =
      per_job([](const JobOutcome& j) { return span_seconds(j.trace, {"dd128_verify"}); });
  const auto classical = per_job([](const JobOutcome& j) {
    return span_seconds(j.trace, {"panel", "rhs_solve", "dist_batch"}) -
           span_seconds(j.trace, {"replay", "dd128_verify"});
  });
  m.add("solver.replay_s", median(replay), "s");
  m.add("solver.dd128_s", median(dd128), "s");
  m.add("solver.classical_s", median(classical), "s");

  m.add("cluster.fanout_s",
        median(per_job([](const JobOutcome& j) { return span_seconds(j.trace, {"dist_proxy"}); })),
        "s");
  m.add("dist.exchange_rounds", first ? static_cast<double>(first->dist_rounds) : 0.0, "count");
  m.add("dist.bytes_moved", first ? static_cast<double>(first->dist_bytes) : 0.0, "bytes");
  const double dist_jobs = dist1.jobs - dist0.jobs;
  m.add("dist.exchange_s", dist_jobs > 0.0 ? (dist1.exchange_s - dist0.exchange_s) / dist_jobs : 0.0,
        "s");
  m.add("dist.local_s", dist_jobs > 0.0 ? (dist1.local_s - dist0.local_s) / dist_jobs : 0.0, "s");

  m.add("proc.cpu_util", cpu_util, "ratio");
  m.add("trace.unaccounted_frac",
        median(per_job([](const JobOutcome& j) { return unaccounted_fraction(j.trace); })),
        "ratio");
  const double traced_rate = rhs_rate(traced);
  m.add("trace.overhead_ratio", traced_rate > 0.0 ? rhs_rate(plain) / traced_rate : 0.0, "ratio");

  // Probes last, on the first measured job's inputs, with the front door
  // (and the memory its contexts hold) gone.
  const JobInput probe_job = make_job(w, args.seed, 0, 1, live.target.matrix, live.target.matrix_ref);
  live.door.reset();
  run_probes(w, probe_job, m);

  Json doc = Json::object();
  doc["workload"] = std::string(w.name);
  doc["seed"] = std::to_string(args.seed);
  doc["seconds"] = args.seconds;
  doc["metrics"] = m.to_json();
  Json traces = Json::array();
  for (const JobOutcome* job : jobs) traces.push_back(job->trace);
  doc["jobs"] = std::move(traces);
  const std::string path = args.trace_dir + "/trace_" + std::string(w.name) + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
  std::printf("wrote %s (%zu traced jobs)\n", path.c_str(), jobs.size());
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      args.workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-dir") == 0 && has_value) {
      args.trace_dir = argv[++i];
    } else {
      return false;
    }
  }
  return find_workload(args.workload) != nullptr && args.seconds > 0.0;
}

int run(const Args& args) {
  const Workload& w = *find_workload(args.workload);
  const auto matrix = w.fresh_matrix ? nullptr : shared_matrix(w, args.seed);
  std::printf("perf_e2e %s: n=%zu kappa=%g, %zu rhs/job, %s, %zu client%s%s, seed %llu, %.1f s\n",
              args.workload.c_str(), w.n, w.kappa, w.rhs_per_job,
              w.adaptive ? "adaptive" : "double", w.clients, w.clients == 1 ? "" : "s",
              w.dist_workers != 0 ? ", shard group of 2" : "",
              static_cast<unsigned long long>(args.seed), args.seconds);

  Tally tally;
  MetricSet m;
  if (args.trace_dir.empty()) {
    plain_run(w, args, matrix, tally, m);
  } else {
    traced_run(w, args, matrix, tally, m);
  }
  m.print(stdout);
  std::printf("failed_frac: %zu/%zu\n", tally.failed, tally.attempted);

  Json result = Json::object();
  result["correct"] = tally.failed == 0 && tally.attempted > 0;
  result["attempted"] = static_cast<std::uint64_t>(tally.attempted);
  result["failed"] = static_cast<std::uint64_t>(tally.failed);
  result["metrics"] = m.to_json();
  std::printf("%s\n", result.dump().c_str());
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perf_e2e --workload <warm_batch|warm_single|cold_prepare|shard_group>"
                   " --seed <n> [--seconds <t>] [--trace-dir <dir>]\n");
      return 2;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_e2e: %s\n", e.what());
    return 1;
  }
}
