// Distributed statevector replay on the programs production builds: every
// configuration below is a QSVT program compiled by prepare_qsvt_solver
// (default fusion, eps_l = 5e-2, adaptive precision), replayed as B-lane
// shard panels on W shard threads over a LocalPeerGroup — same exchange
// plan, same frame layout, loopback memcpy transport — against the
// single-node B-lane panel replay of the same program, at every tier the
// adaptive schedule uses.
//
//   build/bench/perf_dist_scaling            # full run + acceptance
//   build/bench/perf_dist_scaling --smoke    # small matrices, no acceptance
//
// Workloads:
//   - dense embedding, n = 64, kappa = 20 (the perf_e2e shard_group
//     shape) at W = 2 and W = 4: default fusion has already turned every
//     phase gadget into a diagonal window, so the scheduling passes find
//     nothing to rewrite;
//   - tridiagonal encoding, n = 8, at W = 4: a gate-level encoding whose
//     fused program still carries controlled-X conjugations across the
//     partition qubits, the case the passes exist for. It is replayed
//     under the scheduled plan and the classify-only plan
//     ({.schedule = false}).
//
// Acceptance (exit 1 on failure):
//   - every replay matches the single-node panel — bitwise when no
//     scheduling rewrite fired (demoted_diagonal == 0 and
//     conjugated_ops == 0), else within a per-tier tolerance (the
//     rewritten multiply runs through a different kernel);
//   - the dense programs show zero rewrites;
//   - on tridiagonal W = 4 the scheduled plan runs fewer exchange rounds
//     and less wall clock than the classify-only plan.
//
// Emits BENCH_dist_scaling.json (see bench_io.hpp).
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_io.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/dist/dist_executor.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsvt/solve.hpp"

namespace {

using namespace mpqls;
using namespace mpqls::qsim::exec;

constexpr std::size_t kLanes = 8;

/// One random normalized state per lane: lanes[l][g].
using Lanes = std::vector<std::vector<std::complex<double>>>;
Lanes random_lanes(Xoshiro256& rng, std::uint32_t n) {
  Lanes out(kLanes, std::vector<std::complex<double>>(std::size_t{1} << n));
  for (auto& amps : out) {
    double nrm = 0.0;
    for (auto& a : amps) {
      a = {rng.normal(), rng.normal()};
      nrm += std::norm(a);
    }
    for (auto& a : amps) a /= std::sqrt(nrm);
  }
  return out;
}

struct Replay {
  double seconds = 0.0;       ///< best-of-reps wall clock for one replay
  std::uint64_t rounds = 0;   ///< exchange rounds one rank executed
  std::uint64_t bytes = 0;    ///< bytes one rank shipped
  double max_diff = 0.0;      ///< vs the single-node panel
  bool bitwise = true;        ///< every amplitude identical to the panel
};

/// Single-node reference: the B-lane panel replay of the whole program.
template <typename T>
StatePanel<T> panel_replay(const Program<T>& program, const Lanes& init, int reps,
                           double& seconds) {
  StatePanel<T> panel(program.num_qubits, kLanes);
  seconds = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < panel.dim(); ++i) {
      for (std::size_t l = 0; l < kLanes; ++l) panel.set_amp(i, l, init[l][i]);
    }
    Timer t;
    PanelExecutor<T>{}.run(program, panel);
    seconds = std::min(seconds, t.seconds());
  }
  return panel;
}

/// Replay `plan` as B-lane shard panels on W threads `reps` times from
/// the same initial lanes; keep the fastest and compare with `want`.
template <typename T>
Replay shard_replay(const dist::ExchangePlan& plan, const Lanes& init,
                    const StatePanel<T>& want, int reps) {
  const std::uint32_t world = 1u << plan.world_log2;
  const std::uint32_t m = plan.local_qubits;
  std::vector<dist::RankProgram<T>> programs;
  for (std::uint32_t r = 0; r < world; ++r) programs.push_back(dist::specialize_rank<T>(plan, r));

  Replay out;
  out.seconds = 1e300;
  std::vector<StatePanel<T>> shards(world, StatePanel<T>(m, kLanes));
  for (int rep = 0; rep < reps; ++rep) {
    for (std::uint32_t r = 0; r < world; ++r) {
      for (std::size_t i = 0; i < shards[r].dim(); ++i) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          shards[r].set_amp(i, l, init[l][(std::size_t{r} << m) | i]);
        }
      }
    }
    dist::LocalPeerGroup group(world);
    std::vector<dist::DistRunMetrics> metrics(world);
    std::vector<std::exception_ptr> errors(world);
    std::vector<std::thread> threads;
    Timer t;
    for (std::uint32_t r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        try {
          auto channel = group.channel(r);
          std::uint64_t seq = 0;
          dist::run_rank_program<T>(programs[r], shards[r], *channel, seq, &metrics[r]);
        } catch (...) {
          errors[r] = std::current_exception();
        }
      });
    }
    for (auto& th : threads) th.join();
    out.seconds = std::min(out.seconds, t.seconds());
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    out.rounds = metrics[0].exchange_rounds;
    out.bytes = metrics[0].bytes_moved;
  }

  for (std::size_t g = 0; g < want.dim(); ++g) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const auto got = shards[g >> m].amp(g & ((std::size_t{1} << m) - 1), l);
      const auto ref = want.amp(g, l);
      out.bitwise = out.bitwise && got == ref;
      out.max_diff = std::fmax(out.max_diff, std::abs(got - ref));
    }
  }
  return out;
}

/// Tolerance for a replay whose plan rewrote ops: the same multipliers
/// through another kernel, accumulated over the whole program.
template <typename T>
double rewrite_tolerance() {
  return std::is_same_v<T, double> ? 1e-10 : 1e-3;
}

struct Config {
  const char* name;
  std::size_t n;
  qsvt::EncodingKind encoding;
  std::uint32_t world_log2;
  bool compare_classify_only;
};

int run(bool smoke) {
  const int reps = smoke ? 1 : 5;
  const std::size_t dense_n = smoke ? 8 : 64;
  const std::size_t tridiag_n = smoke ? 4 : 8;
  const Config configs[] = {
      {"dense", dense_n, qsvt::EncodingKind::kDenseEmbedding, 1, false},
      {"dense", dense_n, qsvt::EncodingKind::kDenseEmbedding, 2, false},
      {"tridiag", tridiag_n, qsvt::EncodingKind::kTridiagonal, 2, true},
  };

  bench::BenchReport report("dist_scaling");
  report.label("mode", smoke ? "smoke" : "full");
  report.metric("lanes", static_cast<double>(kLanes));

  TextTable table({"configuration", "tier", "plan", "wall (ms)", "vs panel", "rounds",
                   "MiB moved/rank", "parity"});
  bool parity = true;
  bool dense_clean = true;
  bool schedule_wins = true;

  Xoshiro256 rng(31);
  for (const auto& cfg : configs) {
    qsvt::QsvtOptions options;
    options.encoding = cfg.encoding;
    options.eps_l = 5e-2;
    options.precision = qsvt::QpuPrecision::kAdaptive;
    const auto A = cfg.encoding == qsvt::EncodingKind::kTridiagonal
                       ? linalg::dirichlet_laplacian(cfg.n)
                       : linalg::random_with_cond(rng, cfg.n, 20.0);
    Timer prep;
    const auto ctx = qsvt::prepare_qsvt_solver(A, options);
    const FusedIr& ir = ctx.programs->ir();
    const std::uint32_t world = 1u << cfg.world_log2;
    const std::string label = std::string(cfg.name) + " n=" + std::to_string(cfg.n) +
                              " W=" + std::to_string(world);
    const std::string key = std::string(cfg.name) + "_w" + std::to_string(world);
    std::printf("%s: %u qubits, %zu fused ops (prepared in %.2f s)\n", label.c_str(),
                ir.num_qubits, ir.ops.size(), prep.seconds());

    const auto sched = dist::build_exchange_plan(ir, cfg.world_log2);
    const auto classify = dist::build_exchange_plan(ir, cfg.world_log2, {.schedule = false});
    const bool rewrote = sched.stats.demoted_diagonal != 0 || sched.stats.conjugated_ops != 0;
    if (cfg.encoding == qsvt::EncodingKind::kDenseEmbedding) {
      dense_clean = dense_clean && !rewrote && sched.stats.eliminated_exchanges == 0;
    }
    report.metric(key + "_ops", static_cast<double>(ir.ops.size()));
    report.metric(key + "_scheduled_rounds", static_cast<double>(sched.stats.scheduled_rounds));
    report.metric(key + "_classify_only_rounds",
                  static_cast<double>(classify.stats.scheduled_rounds));
    report.metric(key + "_demoted", static_cast<double>(sched.stats.demoted_diagonal));
    report.metric(key + "_eliminated", static_cast<double>(sched.stats.eliminated_exchanges));
    const auto init = random_lanes(rng, ir.num_qubits);

    const auto run_tier = [&]<typename T>(const char* tier) {
      double panel_seconds = 0.0;
      const auto want = panel_replay(ctx.programs->get<T>(), init, reps, panel_seconds);
      const auto add = [&](const char* plan_name, const dist::ExchangePlan& plan,
                           bool plan_rewrote) {
        const auto r = shard_replay<T>(plan, init, want, reps);
        const bool ok = plan_rewrote ? r.max_diff <= rewrite_tolerance<T>() : r.bitwise;
        parity = parity && ok;
        table.add_row({label, tier, plan_name, fmt_fix(r.seconds * 1e3, 2),
                       fmt_fix(panel_seconds / r.seconds, 2) + "x", std::to_string(r.rounds),
                       fmt_fix(static_cast<double>(r.bytes) / (1024.0 * 1024.0), 3),
                       r.bitwise ? std::string("bitwise") : fmt_sci(r.max_diff)});
        const std::string k = key + "_" + tier + "_" + plan_name;
        report.metric(k + "_ms", r.seconds * 1e3);
        report.metric(k + "_rounds", static_cast<double>(r.rounds));
        report.metric(k + "_bytes_per_rank", static_cast<double>(r.bytes));
        return r;
      };
      const auto s = add("scheduled", sched, rewrote);
      if (cfg.compare_classify_only) {
        const auto c = add("classify-only", classify, false);
        schedule_wins = schedule_wins && s.rounds < c.rounds && s.seconds < c.seconds;
      }
      report.metric(key + "_" + tier + "_panel_ms", panel_seconds * 1e3);
    };
    run_tier.template operator()<float>("single");
    run_tier.template operator()<double>("double");
  }
  std::printf("\n%zu-lane shard panels vs the single-node %zu-lane panel:\n", kLanes, kLanes);
  table.print(std::cout);
  std::printf("\n");

  if (smoke) {
    std::printf("smoke mode: shards exercised, acceptance not evaluated (parity %s)\n",
                parity ? "ok" : "FAILED");
    report.write();
    return parity ? 0 : 1;
  }

  const bool pass = parity && dense_clean && schedule_wins;
  std::printf("acceptance: every replay matches the single-node panel (bitwise where no "
              "rewrite fired), dense programs need no rewrite, and on tridiagonal W=4 the "
              "scheduled plan beats classify-only on rounds and wall clock -> %s\n",
              pass ? "PASS" : "FAIL");
  if (!parity) std::printf("FAIL: a shard replay disagrees with the single-node panel\n");
  if (!dense_clean) std::printf("FAIL: the scheduling passes rewrote a dense program\n");
  if (!schedule_wins) std::printf("FAIL: scheduling did not beat classify-only\n");
  report.pass(pass);
  report.write();
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
  return run(smoke);
}
