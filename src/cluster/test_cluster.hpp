// In-process cluster harness: N SolverDaemon workers on ephemeral
// loopback ports plus a Coordinator fronting them — what the loopback
// tests, the scaling bench, and `service_server cluster --workers N` all
// use. Everything binds 127.0.0.1; nothing leaves the machine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/coordinator.hpp"
#include "net/daemon.hpp"

namespace mpqls::cluster {

struct TestClusterOptions {
  std::size_t workers = 2;
  /// Per-worker daemon configuration (port is overridden to ephemeral).
  net::DaemonOptions worker;
  /// Coordinator configuration (worker_urls/port are filled in; port 0
  /// unless set). Probe/breaker/routing knobs pass through.
  CoordinatorOptions coordinator;
};

class TestCluster {
 public:
  explicit TestCluster(TestClusterOptions options = {});
  ~TestCluster();

  TestCluster(const TestCluster&) = delete;
  TestCluster& operator=(const TestCluster&) = delete;

  Coordinator& coordinator() { return *coordinator_; }
  net::SolverDaemon& worker(std::size_t index) { return *workers_.at(index); }
  std::size_t worker_count() const { return workers_.size(); }

  /// The coordinator's listening port.
  std::uint16_t port() const { return coordinator_->port(); }

  /// Stop the coordinator, then drain every worker. Idempotent; the
  /// destructor calls it.
  void stop();

 private:
  std::vector<std::unique_ptr<net::SolverDaemon>> workers_;
  std::unique_ptr<Coordinator> coordinator_;
  bool stopped_ = false;
};

}  // namespace mpqls::cluster
