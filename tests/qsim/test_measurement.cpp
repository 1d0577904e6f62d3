#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "qsim/circuit.hpp"
#include "qsim/statevector.hpp"

namespace mpqls::qsim {
namespace {

TEST(Measurement, ProbabilitiesSumToOne) {
  Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 1.234);
  Statevector<double> sv(3);
  sv.apply(c);
  const auto p = sv.probabilities();
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-14);
}

TEST(Measurement, BellStateMarginals) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  Statevector<double> sv(2);
  sv.apply(c);
  EXPECT_NEAR(sv.probability(0, 0), 0.5, 1e-14);
  EXPECT_NEAR(sv.probability(0, 1), 0.5, 1e-14);
  EXPECT_NEAR(sv.probability(1, 1), 0.5, 1e-14);
}

TEST(Measurement, PostselectZeroProjects) {
  Circuit c(2);
  c.h(0).cx(0, 1);  // (|00> + |11>)/sqrt2
  Statevector<double> sv(2);
  sv.apply(c);
  const double p = sv.postselect_zero({1});
  EXPECT_NEAR(p, 0.5, 1e-14);
  EXPECT_NEAR(std::abs(sv[0]), 1.0, 1e-14);
  EXPECT_NEAR(std::abs(sv[3]), 0.0, 1e-14);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-14);
}

TEST(Measurement, PostselectZeroProbabilityThrows) {
  Statevector<double> sv(1);
  sv.apply(Circuit(1).x(0));
  EXPECT_THROW(sv.postselect_zero({0}), contract_violation);
}

TEST(Measurement, ProbabilityAllZeroMatchesManual) {
  Circuit c(3);
  c.h(0).h(1).h(2);
  Statevector<double> sv(3);
  sv.apply(c);
  EXPECT_NEAR(sv.probability_all_zero({0, 1, 2}), 1.0 / 8.0, 1e-14);
  EXPECT_NEAR(sv.probability_all_zero({1}), 0.5, 1e-14);
}

TEST(Measurement, LargeRegisterReductionsSumInAmplitudeOrder) {
  // 2^16 amplitudes: large enough that a parallel reduction would split
  // the sum. The reductions must equal a plain left-to-right sum bit for
  // bit, so a result never depends on the process's thread count.
  constexpr std::uint32_t kQubits = 16;
  Xoshiro256 rng(2024);
  std::vector<std::complex<double>> amps(std::size_t{1} << kQubits);
  for (auto& a : amps) a = {rng.normal(), rng.normal()};
  auto sv = Statevector<double>::from_amplitudes(kQubits, amps);
  sv.normalize();

  const std::uint32_t q = 7;
  const std::vector<std::uint32_t> zeros = {2, 11, 15};
  std::uint64_t zero_mask = 0;
  for (auto z : zeros) zero_mask |= std::uint64_t{1} << z;
  double total = 0.0, q_one = 0.0, all_zero = 0.0;
  for (std::uint64_t i = 0; i < sv.dim(); ++i) {
    const double p = std::norm(sv[i]);
    total += p;
    if ((i >> q) & 1) q_one += p;
    if ((i & zero_mask) == 0) all_zero += p;
  }
  EXPECT_EQ(sv.norm(), std::sqrt(total));
  EXPECT_EQ(sv.probability(q, 1), q_one);
  EXPECT_EQ(sv.probability_all_zero(zeros), all_zero);
}

TEST(Measurement, SamplingMatchesDistribution) {
  Circuit c(2);
  c.ry(0, 2.0 * std::asin(std::sqrt(0.3)));  // P(q0=1) = 0.3
  Statevector<double> sv(2);
  sv.apply(c);
  Xoshiro256 rng(77);
  const int shots = 100000;
  int ones = 0;
  for (int s = 0; s < shots; ++s) ones += (sv.sample(rng) & 1);
  EXPECT_NEAR(static_cast<double>(ones) / shots, 0.3, 0.01);
}

TEST(Measurement, MultiShotSamplingMatchesSequentialDraws) {
  // The CDF-based multi-shot path must draw the same outcomes as repeated
  // single-shot sampling from an identical generator state.
  Circuit c(4);
  c.h(0).cx(0, 1).ry(2, 0.9).ry(3, 2.1).cx(2, 3);
  Statevector<double> sv(4);
  sv.apply(c);
  Xoshiro256 rng_multi(123), rng_single(123);
  const auto multi = sv.sample(rng_multi, 500);
  ASSERT_EQ(multi.size(), 500u);
  for (std::size_t s = 0; s < multi.size(); ++s) {
    EXPECT_EQ(multi[s], sv.sample(rng_single)) << "shot " << s;
  }
}

TEST(Measurement, MultiShotSamplingMatchesDistribution) {
  Circuit c(2);
  c.ry(0, 2.0 * std::asin(std::sqrt(0.3)));  // P(q0=1) = 0.3
  Statevector<double> sv(2);
  sv.apply(c);
  Xoshiro256 rng(78);
  const auto outcomes = sv.sample(rng, 100000);
  int ones = 0;
  for (auto o : outcomes) ones += static_cast<int>(o & 1);
  EXPECT_NEAR(static_cast<double>(ones) / static_cast<double>(outcomes.size()), 0.3, 0.01);
}

TEST(Measurement, InnerProductOrthogonalStates) {
  Statevector<double> a(1), b(1);
  b.apply(Circuit(1).x(0));
  EXPECT_NEAR(std::abs(a.inner(b)), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(a.inner(a)), 1.0, 1e-15);
}

TEST(Measurement, FloatBackendAgreesWithDouble) {
  Circuit c(4);
  c.h(0).cx(0, 1).ry(2, 0.7).ccx(0, 2, 3).rz(1, -0.2).swap(1, 3);
  Statevector<double> svd(4);
  Statevector<float> svf(4);
  svd.apply(c);
  svf.apply(c);
  for (std::size_t i = 0; i < svd.dim(); ++i) {
    EXPECT_NEAR(svd[i].real(), static_cast<double>(svf[i].real()), 1e-6);
    EXPECT_NEAR(svd[i].imag(), static_cast<double>(svf[i].imag()), 1e-6);
  }
}

TEST(Measurement, FloatBackendAccumulatesMoreError) {
  // A long random-ish circuit: float error should exceed double error but
  // stay around 1e-5 — this is the "hardware low precision" axis.
  Circuit c(3);
  for (int rep = 0; rep < 200; ++rep) {
    c.ry(rep % 3, 0.1 + 0.01 * rep).cx(rep % 3, (rep + 1) % 3).rz((rep + 2) % 3, -0.05);
  }
  Statevector<double> svd(3);
  Statevector<float> svf(3);
  svd.apply(c);
  svf.apply(c);
  double max_err = 0.0;
  for (std::size_t i = 0; i < svd.dim(); ++i) {
    max_err = std::max(max_err, std::abs(std::complex<double>(svd[i].real(), svd[i].imag()) -
                                         std::complex<double>(svf[i].real(), svf[i].imag())));
  }
  EXPECT_GT(max_err, 1e-9);  // visibly above double roundoff
  EXPECT_LT(max_err, 1e-3);  // but still a valid low-precision simulation
}

}  // namespace
}  // namespace mpqls::qsim
