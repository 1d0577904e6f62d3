// The paper's claims as properties of the refinement loop (Algorithm 2,
// Theorem III.1), checked over a seeded sweep rather than one scenario:
// n in {8, 16, 32}, kappa in {4, 12, 30}, eps_l in {1e-2, 5e-2}, and every
// tier policy — adaptive, fixed single, fixed double and fixed "half" (a
// retired tier that runs single). On every point:
//  * every lane of every policy reaches eps: the final accuracy is set by
//    the residual at precision u, not by the QPU tier;
//  * the refinement iterations stay within Theorem III.1's bound wherever
//    the measured eps_l * kappa makes it finite;
//  * no adaptive lane passes dd128 verification with a dd128 residual
//    above 2 eps;
//  * a "half" run is bitwise the single run, with every solve on single.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "linalg/random_matrix.hpp"
#include "solver/qsvt_ir.hpp"

namespace mpqls::solver {
namespace {

constexpr double kEps = 1e-11;

struct Policy {
  const char* name;
  qsvt::QpuPrecision precision;
};

constexpr Policy kPolicies[] = {
    {"adaptive", qsvt::QpuPrecision::kAdaptive},
    {"single", qsvt::QpuPrecision::kSingle},
    {"double", qsvt::QpuPrecision::kDouble},
    {"half", qsvt::QpuPrecision::kHalf},
};

void expect_bitwise_equal(const QsvtIrReport& a, const QsvtIrReport& b, const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
  EXPECT_EQ(a.tier_solves, b.tier_solves) << what;
  EXPECT_EQ(a.tier_iterations, b.tier_iterations) << what;
  EXPECT_EQ(a.precision_switches, b.precision_switches) << what;
  EXPECT_EQ(a.x, b.x) << what;
  EXPECT_EQ(a.scaled_residuals, b.scaled_residuals) << what;
}

TEST(RefinementProperties, SeededSweepOverSizeConditionAccuracyAndTierPolicy) {
  const Timer timer;
  Xoshiro256 rng(2502'02212ull);
  std::size_t lanes_checked = 0;
  std::size_t bounded = 0;
  for (const std::size_t n : {8u, 16u, 32u}) {
    for (const double kappa : {4.0, 12.0, 30.0}) {
      const auto A = linalg::random_with_cond(rng, n, kappa);
      std::vector<linalg::Vector<double>> bs;
      for (int k = 0; k < 2; ++k) bs.push_back(linalg::random_unit_vector(rng, n));
      for (const double eps_l : {1e-2, 5e-2}) {
        const std::string point = "n=" + std::to_string(n) + " kappa=" + std::to_string(kappa) +
                                  " eps_l=" + std::to_string(eps_l);
        // One preparation per point: the policies share its compiled
        // programs and differ only in the precision the loop reads.
        qsvt::QsvtOptions prepared;
        prepared.eps_l = eps_l;
        prepared.precision = qsvt::QpuPrecision::kAdaptive;
        const auto shared = qsvt::prepare_qsvt_solver(A, prepared);
        std::vector<std::vector<QsvtIrReport>> by_policy;
        for (const Policy& policy : kPolicies) {
          QsvtIrOptions options;
          options.eps = kEps;
          options.qsvt = prepared;
          options.qsvt.precision = policy.precision;
          auto ctx = shared;
          ctx.options.precision = policy.precision;
          auto reports =
              solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(bs), options);
          for (std::size_t l = 0; l < reports.size(); ++l) {
            const auto& rep = reports[l];
            const std::string what = point + " " + policy.name + " lane " + std::to_string(l);
            ++lanes_checked;
            EXPECT_TRUE(rep.converged) << what;
            EXPECT_LE(rep.scaled_residuals.back(), kEps) << what;
            if (rep.theoretical_iteration_bound > 0) {
              ++bounded;
              EXPECT_LE(static_cast<std::uint64_t>(rep.iterations),
                        rep.theoretical_iteration_bound)
                  << what;
            }
            EXPECT_EQ(rep.tier_solves[kTierSingle] + rep.tier_solves[kTierDouble],
                      rep.solves.size())
                << what;
            if (policy.precision == qsvt::QpuPrecision::kAdaptive) {
              EXPECT_FALSE(rep.dd128_verified && rep.dd128_final_residual > 2.0 * kEps) << what;
            } else {
              EXPECT_EQ(rep.precision_switches, 0u) << what;
            }
          }
          by_policy.push_back(std::move(reports));
        }
        // kPolicies order: adaptive, single, double, half.
        const auto& single = by_policy[1];
        const auto& half = by_policy[3];
        for (std::size_t l = 0; l < bs.size(); ++l) {
          const std::string what = point + " half vs single lane " + std::to_string(l);
          expect_bitwise_equal(half[l], single[l], what);
          EXPECT_EQ(half[l].tier_solves[kTierSingle], half[l].solves.size()) << what;
        }
      }
    }
  }
  const double seconds = timer.seconds();
  std::printf("properties: %zu lanes checked, %zu under a finite Theorem III.1 bound, %.2f s\n",
              lanes_checked, bounded, seconds);
  EXPECT_EQ(lanes_checked, 3u * 3u * 2u * 4u * 2u);
  EXPECT_GT(bounded, 0u);  // the bound applies somewhere in the sweep
}

}  // namespace
}  // namespace mpqls::solver
