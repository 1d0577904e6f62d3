#include "cluster/test_cluster.hpp"

#include <chrono>

#include "common/contracts.hpp"

namespace mpqls::cluster {

TestCluster::TestCluster(TestClusterOptions options) {
  expects(options.workers >= 1, "cluster: need at least one worker");

  CoordinatorOptions coordinator = options.coordinator;
  coordinator.worker_urls.clear();
  for (std::size_t i = 0; i < options.workers; ++i) {
    net::DaemonOptions worker = options.worker;
    worker.port = 0;  // ephemeral
    auto daemon = std::make_unique<net::SolverDaemon>(worker);
    daemon->start();
    coordinator.worker_urls.push_back("127.0.0.1:" + std::to_string(daemon->port()));
    workers_.push_back(std::move(daemon));
  }

  coordinator_ = std::make_unique<Coordinator>(coordinator);
  coordinator_->start();
}

TestCluster::~TestCluster() { stop(); }

void TestCluster::stop() {
  if (stopped_) return;
  stopped_ = true;
  coordinator_->stop();
  for (auto& worker : workers_) worker->drain(std::chrono::milliseconds(10000));
}

}  // namespace mpqls::cluster
