// The "reference" backend: the OpenMP panel executor dispatched through
// the ExecBackend seam. apply_program_panel IS PanelExecutor<T>::run, so
// results are bit-identical to direct executor calls for a fixed thread
// count.
#include "qsim/exec/backend/backend.hpp"
#include "qsim/exec/panel_executor.hpp"

namespace mpqls::qsim::exec {

namespace {

/// The executor is stateless, so the reference handle carries nothing; it
/// exists to satisfy the handle lifecycle of the interface.
class ReferenceHandle final : public BackendHandle {};

class ReferenceBackend final : public ExecBackend {
 public:
  ReferenceBackend() {
    caps_.name = "reference";
    caps_.description = "gate-at-a-time OpenMP executor (lane-templated panel kernels)";
    caps_.precisions = {"half", "single", "double"};
    caps_.max_qubits = 30;  // the StatePanel register cap
    caps_.panel_widths = {1, 2, 4, 8, 16, 0};
  }

  const BackendCapabilities& capabilities() const override { return caps_; }

  std::shared_ptr<BackendHandle> create_handle() const override {
    return std::make_shared<ReferenceHandle>();
  }

  void apply_program_panel(BackendHandle&, const Program<f16>& program,
                           StatePanel<f16>& panel) const override {
    PanelExecutor<f16>{}.run(program, panel);
  }
  void apply_program_panel(BackendHandle&, const Program<float>& program,
                           StatePanel<float>& panel) const override {
    PanelExecutor<float>{}.run(program, panel);
  }
  void apply_program_panel(BackendHandle&, const Program<double>& program,
                           StatePanel<double>& panel) const override {
    PanelExecutor<double>{}.run(program, panel);
  }

 private:
  BackendCapabilities caps_;
};

}  // namespace

std::shared_ptr<ExecBackend> make_reference_backend() {
  return std::make_shared<ReferenceBackend>();
}

}  // namespace mpqls::qsim::exec
