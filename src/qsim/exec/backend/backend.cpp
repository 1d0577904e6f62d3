#include "qsim/exec/backend/backend.hpp"

#include <mutex>
#include <unordered_map>

#include "common/contracts.hpp"

namespace mpqls::qsim::exec {

struct BackendRegistry::Impl {
  mutable std::mutex mutex;
  std::vector<std::shared_ptr<ExecBackend>> ordered;
  std::unordered_map<std::string, std::size_t> by_name;
  /// Replaced entries are parked here so pointers handed out before a
  /// re-registration stay valid for the process lifetime.
  std::vector<std::shared_ptr<ExecBackend>> retired;
};

BackendRegistry::BackendRegistry() : impl_(std::make_shared<Impl>()) {}

void BackendRegistry::register_backend(std::shared_ptr<ExecBackend> backend) {
  expects(backend != nullptr, "backend registry: null backend");
  const std::string name = backend->capabilities().name;
  expects(!name.empty(), "backend registry: backend must be named");
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->by_name.find(name);
  if (it != impl_->by_name.end()) {
    impl_->retired.push_back(std::move(impl_->ordered[it->second]));
    impl_->ordered[it->second] = std::move(backend);
    return;
  }
  impl_->by_name.emplace(name, impl_->ordered.size());
  impl_->ordered.push_back(std::move(backend));
}

const ExecBackend* BackendRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->by_name.find(name);
  return it == impl_->by_name.end() ? nullptr : impl_->ordered[it->second].get();
}

std::vector<const ExecBackend*> BackendRegistry::list() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<const ExecBackend*> out;
  out.reserve(impl_->ordered.size());
  for (const auto& b : impl_->ordered) out.push_back(b.get());
  return out;
}

std::vector<std::string> BackendRegistry::names() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->ordered.size());
  for (const auto& b : impl_->ordered) out.push_back(b->capabilities().name);
  return out;
}

BackendRegistry& backend_registry() {
  // The built-in installs inside the same once-guard that builds the
  // registry, so every caller observes it (no registration/lookup race at
  // startup).
  static BackendRegistry* registry = [] {
    auto* r = new BackendRegistry();
    r->register_backend(make_reference_backend());
    return r;
  }();
  return *registry;
}

const ExecBackend* find_backend(const std::string& name) {
  return backend_registry().find(name);
}

const ExecBackend& default_backend() {
  const ExecBackend* ref = find_backend(kDefaultBackendName);
  ensures(ref != nullptr, "backend registry: reference backend missing");
  return *ref;
}

}  // namespace mpqls::qsim::exec
