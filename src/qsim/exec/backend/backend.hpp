// Pluggable execution backends behind the compiled IR. The compiler
// pipeline (Circuit -> FusedIr -> Program<T>) is backend-agnostic; this
// interface makes the *last* stage — replaying a Program<T> against a
// register — a dispatchable seam shaped like the GPU statevector APIs
// (cuStateVec-style): create a handle, apply a program.
//
// Contract:
//  * `create_handle()` returns the backend's per-consumer state (plan
//    caches, workspace). One handle serves one solver context; `apply_*`
//    calls on it may race from many solve threads, so a backend's handle
//    must be internally synchronized. Destroying the handle (its last
//    shared_ptr) releases everything the backend allocated for it.
//  * `apply_program_panel` replays every op of the program, in order,
//    against every lane of the panel — semantically identical to
//    PanelExecutor<T> up to floating-point reassociation. A single
//    right-hand side is a one-lane panel. The program outlives the
//    handle's use of it (programs are cached inside a ProgramSet for the
//    context's lifetime), which lets backends key per-program plans by
//    address.
//  * `capabilities()` is a static descriptor the service layer surfaces in
//    /v1/healthz and the cluster coordinator routes on.
//
// Adding a backend = subclass ExecBackend, implement the entry points, and
// register an instance in `backend_registry()` (backend.cpp) or via
// `backend_registry().register_backend(...)` at startup. Nothing above
// this layer (solver, service, daemon, coordinator) names concrete
// backends except by string.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qsim/exec/panel.hpp"
#include "qsim/exec/program.hpp"

namespace mpqls::qsim::exec {

/// What a backend can run — the routing/telemetry descriptor. Precisions
/// use the wire names of the service layer ("half", "single", "double").
struct BackendCapabilities {
  std::string name;
  std::string description;
  std::vector<std::string> precisions;
  std::uint32_t max_qubits = 0;
  /// Panel lane widths with a specialized kernel path; 0 marks support
  /// for arbitrary runtime widths (the generic lane path).
  std::vector<std::uint32_t> panel_widths;
};

/// Opaque per-consumer backend state (plan caches, workspace). Backends
/// downcast to their concrete handle type inside apply_*.
class BackendHandle {
 public:
  virtual ~BackendHandle() = default;
};

class ExecBackend {
 public:
  virtual ~ExecBackend() = default;

  virtual const BackendCapabilities& capabilities() const = 0;

  /// Fresh per-consumer state. Never nullptr.
  virtual std::shared_ptr<BackendHandle> create_handle() const = 0;

  // Panel entry points, one per storage tier.
  virtual void apply_program_panel(BackendHandle& handle, const Program<f16>& program,
                                   StatePanel<f16>& panel) const = 0;
  virtual void apply_program_panel(BackendHandle& handle, const Program<float>& program,
                                   StatePanel<float>& panel) const = 0;
  virtual void apply_program_panel(BackendHandle& handle, const Program<double>& program,
                                   StatePanel<double>& panel) const = 0;
};

/// Process-wide backend registry. The built-in "reference" backend
/// self-registers on first access; additional backends may be registered at
/// startup. Lookup is by capability name. Thread-safe; registered backends
/// live for the process lifetime (raw pointers returned by find/list never
/// dangle).
class BackendRegistry {
 public:
  /// Register a backend under its capability name. Re-registering a name
  /// replaces the entry (the old instance stays alive — handed-out
  /// pointers remain valid).
  void register_backend(std::shared_ptr<ExecBackend> backend);

  /// nullptr when no backend of that name exists.
  const ExecBackend* find(const std::string& name) const;

  /// Registration-ordered list of every backend.
  std::vector<const ExecBackend*> list() const;

  /// Registration-ordered list of every backend name.
  std::vector<std::string> names() const;

 private:
  friend BackendRegistry& backend_registry();
  BackendRegistry();

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// The process-wide registry (the built-in installed on first call).
BackendRegistry& backend_registry();

/// Name of the backend the stack selects when nothing else is configured.
inline constexpr const char* kDefaultBackendName = "reference";

/// Registry lookup shorthand: nullptr when unknown.
const ExecBackend* find_backend(const std::string& name);

/// The "reference" backend (always registered).
const ExecBackend& default_backend();

/// The built-in factory (used by the registry; exposed for tests that
/// want a private instance or a named delegate).
std::shared_ptr<ExecBackend> make_reference_backend();

}  // namespace mpqls::qsim::exec
