#include "qsim/synth/ucr.hpp"

#include <bit>

#include "common/contracts.hpp"

namespace mpqls::qsim {

namespace {

std::uint64_t gray(std::uint64_t i) { return i ^ (i >> 1); }

// Solve for the rotation angles theta of the Gray-walk circuit such that
// control value x receives the net angle angles[x]. The walk's CNOT
// conjugations give angles = S theta with S_{x,i} = (-1)^{popcount(x &
// gray(i))}; S S^T = 2^k I, so theta = S^T angles / 2^k.
std::vector<double> walk_angles(const std::vector<double>& angles) {
  const std::size_t m = angles.size();
  std::vector<double> theta(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double s = 0.0;
    const std::uint64_t gi = gray(i);
    for (std::size_t x = 0; x < m; ++x) {
      const int sign = (std::popcount(static_cast<std::uint64_t>(x) & gi) & 1) ? -1 : 1;
      s += sign * angles[x];
    }
    theta[i] = s / static_cast<double>(m);
  }
  return theta;
}

enum class Axis { kY, kZ };

void append_ucr(Circuit& circuit, const std::vector<std::uint32_t>& controls,
                std::uint32_t target, const std::vector<double>& angles, Axis axis) {
  const std::size_t k = controls.size();
  expects(angles.size() == (std::size_t{1} << k), "ucr: angle count must be 2^k");
  auto rotate = [&](double theta) {
    if (axis == Axis::kY) {
      circuit.ry(target, theta);
    } else {
      circuit.rz(target, theta);
    }
  };
  if (k == 0) {
    rotate(angles[0]);
    return;
  }
  const std::vector<double> theta = walk_angles(angles);
  const std::size_t m = angles.size();
  for (std::size_t i = 0; i < m; ++i) {
    rotate(theta[i]);
    // CNOT on the bit that flips between gray(i) and gray(i+1 mod m); for
    // the wrap-around step this is the top bit, closing the walk.
    const std::uint64_t change = gray(i) ^ gray((i + 1) % m);
    const int bit = std::countr_zero(change);
    circuit.cx(controls[static_cast<std::size_t>(bit)], target);
  }
}

}  // namespace

void append_ucry(Circuit& circuit, const std::vector<std::uint32_t>& controls,
                 std::uint32_t target, const std::vector<double>& angles) {
  append_ucr(circuit, controls, target, angles, Axis::kY);
}

void append_ucrz(Circuit& circuit, const std::vector<std::uint32_t>& controls,
                 std::uint32_t target, const std::vector<double>& angles) {
  append_ucr(circuit, controls, target, angles, Axis::kZ);
}

}  // namespace mpqls::qsim
