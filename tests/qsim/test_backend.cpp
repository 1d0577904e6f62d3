// Execution-backend tests: registry contract (built-in, lookup, default,
// re-registration), handle lifecycle, and the "reference" backend's
// bit-identity to direct PanelExecutor replay on every storage tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <memory>
#include <vector>

#include "../support/delegate_backend.hpp"
#include "../support/exec_fixtures.hpp"
#include "common/rng.hpp"
#include "qsim/exec/backend/backend.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"

namespace {

using namespace mpqls;
namespace exec = qsim::exec;

TEST(BackendRegistry, BuiltinRegisteredAndDiscoverable) {
  auto& reg = exec::backend_registry();
  const auto names = reg.names();
  ASSERT_GE(names.size(), 1u);
  EXPECT_NE(std::find(names.begin(), names.end(), "reference"), names.end());

  const exec::ExecBackend* ref = exec::find_backend("reference");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->capabilities().name, "reference");
  EXPECT_EQ(ref->capabilities().max_qubits, 30u);
  EXPECT_EQ(ref->capabilities().precisions,
            (std::vector<std::string>{"half", "single", "double"}));
  const auto& widths = ref->capabilities().panel_widths;
  for (std::uint32_t w : {1u, 2u, 4u, 8u, 16u, 0u}) {
    EXPECT_NE(std::find(widths.begin(), widths.end(), w), widths.end());
  }

  EXPECT_EQ(exec::find_backend("no-such-backend"), nullptr);
  EXPECT_EQ(exec::default_backend().capabilities().name,
            std::string(exec::kDefaultBackendName));
  EXPECT_EQ(reg.list().size(), names.size());
}

TEST(BackendRegistry, RegisteredBackendsAreFoundByName) {
  const std::string name = test::register_delegate_backend("registry-test");
  const exec::ExecBackend* delegate = exec::find_backend(name);
  ASSERT_NE(delegate, nullptr);
  EXPECT_EQ(delegate->capabilities().name, name);
  // Re-registering a name replaces the entry without invalidating the
  // pointer handed out before.
  test::register_delegate_backend(name);
  EXPECT_EQ(delegate->capabilities().name, name);
  const auto names = exec::backend_registry().names();
  EXPECT_EQ(std::count(names.begin(), names.end(), name), 1);
}

TEST(BackendRegistry, HandlesAreIndependent) {
  const exec::ExecBackend& ref = exec::default_backend();
  auto h1 = ref.create_handle();
  auto h2 = ref.create_handle();
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h2, nullptr);
  EXPECT_NE(h1.get(), h2.get());
}

template <typename T>
void reference_is_panel_executor(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto program = exec::compile<T>(test::random_circuit(rng, 7, 80));
  for (const std::size_t lanes : {1u, 3u, 8u}) {
    exec::StatePanel<T> direct(7, lanes);
    for (std::size_t i = 0; i < direct.dim(); ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        direct.set_amp(i, l, {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
      }
    }
    exec::StatePanel<T> dispatched = direct;
    exec::PanelExecutor<T>().run(program, direct);
    const exec::ExecBackend& ref = exec::default_backend();
    auto handle = ref.create_handle();
    ref.apply_program_panel(*handle, program, dispatched);
    for (std::size_t i = 0; i < direct.dim(); ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(direct.amp(i, l), dispatched.amp(i, l)) << "lanes=" << lanes << " amp " << i;
      }
    }
  }
}

TEST(ReferenceBackend, BitIdenticalToPanelExecutorDouble) {
  reference_is_panel_executor<double>(7);
}

TEST(ReferenceBackend, BitIdenticalToPanelExecutorFloat) {
  reference_is_panel_executor<float>(8);
}

TEST(ReferenceBackend, BitIdenticalToPanelExecutorHalf) {
  reference_is_panel_executor<exec::f16>(9);
}

}  // namespace
