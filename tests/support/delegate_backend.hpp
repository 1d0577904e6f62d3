// A test-only second execution backend: the reference backend's kernels
// under another registry name. Routing and admission tests need a backend
// that some workers enable and others do not; this one replays exactly
// what "reference" replays, so any job it runs is a valid result.
#pragma once

#include <memory>
#include <string>

#include "qsim/exec/backend/backend.hpp"

namespace mpqls::test {

class DelegateBackend final : public qsim::exec::ExecBackend {
 public:
  explicit DelegateBackend(std::string name) : inner_(qsim::exec::make_reference_backend()) {
    caps_ = inner_->capabilities();
    caps_.name = std::move(name);
    caps_.description = "test delegate of the reference backend";
  }

  const qsim::exec::BackendCapabilities& capabilities() const override { return caps_; }

  std::shared_ptr<qsim::exec::BackendHandle> create_handle() const override {
    return inner_->create_handle();
  }

  void apply_program_panel(qsim::exec::BackendHandle& handle,
                           const qsim::exec::Program<qsim::exec::f16>& program,
                           qsim::exec::StatePanel<qsim::exec::f16>& panel) const override {
    inner_->apply_program_panel(handle, program, panel);
  }
  void apply_program_panel(qsim::exec::BackendHandle& handle,
                           const qsim::exec::Program<float>& program,
                           qsim::exec::StatePanel<float>& panel) const override {
    inner_->apply_program_panel(handle, program, panel);
  }
  void apply_program_panel(qsim::exec::BackendHandle& handle,
                           const qsim::exec::Program<double>& program,
                           qsim::exec::StatePanel<double>& panel) const override {
    inner_->apply_program_panel(handle, program, panel);
  }

 private:
  std::shared_ptr<qsim::exec::ExecBackend> inner_;
  qsim::exec::BackendCapabilities caps_;
};

/// Register a delegate under `name` in the process-wide registry (a later
/// registration of the same name replaces it) and return the name.
inline std::string register_delegate_backend(const std::string& name = "delegate") {
  qsim::exec::backend_registry().register_backend(std::make_shared<DelegateBackend>(name));
  return name;
}

}  // namespace mpqls::test
