// Remote job submission against a running solver daemon:
//
//   build/examples/service_server serve --port 8080 &
//   build/examples/submit_job --port 8080 examples/jobs/mixed.json
//
// Reads a job file ({"jobs": [...]} or a single request object), POSTs
// every job to /v1/jobs over one keep-alive connection, then polls
// /v1/jobs/{id} until each is terminal and prints a summary table.
// Backpressure is handled the way a well-behaved client should: 429
// waits and resubmits, 503 (draining) gives up on the remaining jobs.
//
// Transport flags exercise the binary protocol (src/wire) and the
// content-addressed matrix store:
//
//   --binary  encode requests as application/x-mpqls-frame frames and
//             fetch results through GET /v1/jobs/{id}/result with the
//             frame Accept header (JSON stays the default).
//   --upload  PUT each job's matrix to /v1/matrices first and submit
//             by matrix_ref. A 404 on submit (worker restarted or the
//             store evicted the entry) re-uploads and retries — the
//             self-healing client loop the protocol is designed around.
//
// Works against a single daemon or a cluster coordinator transparently;
// against a coordinator the status output additionally renders the
// per-worker routing gauges (breaker state, in-flight, affinity hit
// ratio) scraped from /v1/metrics. `--cancel JOB_ID` instead issues
// DELETE /v1/jobs/JOB_ID and exits; `--trace JOB_ID` fetches
// GET /v1/jobs/JOB_ID/trace and pretty-prints the span tree (indented by
// parentage, with durations, percent-of-parent, and span attributes such
// as precision tier and panel lanes). Jobs that ran as shard-group
// members get their dist telemetry (rank/world, exchange rounds, bytes
// moved) rendered under the summary table, and the daemon's distributed
// posture (qubit cap, active shard groups with peers) is scraped from
// /v1/healthz after the run.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/io.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "net/http_client.hpp"
#include "service/json_io.hpp"
#include "service/limits.hpp"
#include "wire/codec.hpp"

namespace {

/// Value of `name{worker="<worker>"} v` in Prometheus exposition text;
/// NaN when the series is absent.
double labeled_metric(const std::string& text, const std::string& name,
                      const std::string& worker) {
  const std::string needle = name + "{worker=\"" + worker + "\"} ";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::stod(text.substr(pos + needle.size()));
}

/// Value of an unlabeled `name v` sample line; NaN when absent. Anchored
/// to a line start so `mpqls_panel_lanes_total` cannot match inside a
/// longer family name.
double scalar_metric(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::stod(text.substr(pos + needle.size()));
}

/// Panel-executor stats scraped from /v1/metrics — the server-side
/// counterpart of the table above: how many compiled-program sweeps were
/// shared across RHS lanes and how full they ran. A plain daemon exports
/// the unlabeled family; a cluster coordinator relabels each worker's
/// families with worker="wk", so those series are summed instead.
void print_panel_status(const std::string& metrics_text) {
  double panels = scalar_metric(metrics_text, "mpqls_panels_executed_total");
  double lanes = scalar_metric(metrics_text, "mpqls_panel_lanes_total");
  double width = scalar_metric(metrics_text, "mpqls_panel_width");
  if (std::isnan(panels)) {
    panels = lanes = 0.0;
    width = std::nan("");
    bool any = false;
    for (int w = 0;; ++w) {
      const std::string label = "w" + std::to_string(w);
      const double p = labeled_metric(metrics_text, "mpqls_panels_executed_total", label);
      if (std::isnan(p)) break;
      any = true;
      panels += p;
      const double l = labeled_metric(metrics_text, "mpqls_panel_lanes_total", label);
      if (!std::isnan(l)) lanes += l;
      if (std::isnan(width)) {
        width = labeled_metric(metrics_text, "mpqls_panel_width", label);
      }
    }
    if (!any) return;
  }
  if (panels <= 0.0) return;
  std::printf("\npanel executor: width %.0f, %.0f panels, %.0f lanes", width, panels, lanes);
  if (width > 0.0) std::printf(", mean occupancy %.2f", lanes / (panels * width));
  std::printf("\n");
}

/// Sum of every sample line of one family whose label set contains
/// `label_filter` (empty = all samples). Covers the plain daemon
/// (unlabeled or encoding-labeled) and the cluster merge (worker-
/// relabeled, label order unspecified) with one scan. NaN when no
/// sample matched.
double family_sum(const std::string& text, const std::string& name,
                  const std::string& label_filter = {}) {
  double sum = 0.0;
  bool any = false;
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    // Anchor to a line start and require '{' or ' ' next, so a family
    // cannot match inside a longer name or a HELP/TYPE line.
    const std::size_t start = pos;
    const std::size_t after = pos + name.size();
    pos = after;
    if (start != 0 && text[start - 1] != '\n') continue;
    if (after >= text.size() || (text[after] != '{' && text[after] != ' ')) continue;
    std::size_t eol = text.find('\n', after);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(start, eol - start);
    if (!label_filter.empty() && line.find(label_filter) == std::string::npos) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    try {
      sum += std::stod(line.substr(space + 1));
      any = true;
    } catch (const std::exception&) {
    }
  }
  return any ? sum : std::nan("");
}

/// Matrix-store occupancy and wire traffic split, scraped from
/// /v1/metrics (summed across workers against a cluster coordinator).
/// Prints nothing against a daemon predating the store.
void print_store_status(const std::string& text) {
  const double entries = family_sum(text, "mpqls_store_entries");
  if (std::isnan(entries)) return;
  std::printf("\nmatrix store: %.0f entries, %.1f MiB resident, %.0f hits / %.0f misses, "
              "%.0f evictions\n",
              entries, family_sum(text, "mpqls_store_bytes") / (1024.0 * 1024.0),
              family_sum(text, "mpqls_store_hits_total"),
              family_sum(text, "mpqls_store_misses_total"),
              family_sum(text, "mpqls_store_evictions_total"));
  const auto encoded = [&text](const char* name, const char* encoding) {
    const double v = family_sum(text, name, std::string("encoding=\"") + encoding + "\"");
    return std::isnan(v) ? 0.0 : v;
  };
  std::printf("wire traffic: json %.0f req / %.0f B in, binary %.0f req / %.0f B in\n",
              encoded("mpqls_wire_requests_total", "json"),
              encoded("mpqls_wire_request_bytes_total", "json"),
              encoded("mpqls_wire_requests_total", "binary"),
              encoded("mpqls_wire_request_bytes_total", "binary"));
}

/// Per-precision-tier execution split scraped from /v1/metrics (summed
/// across workers against a cluster coordinator). Prints nothing against
/// a daemon predating adaptive precision, and stays quiet when no tiered
/// work has run yet.
void print_precision_status(const std::string& text) {
  const auto tier = [&text](const char* name, const char* precision) {
    const double v =
        family_sum(text, name, std::string("precision=\"") + precision + "\"");
    return std::isnan(v) ? 0.0 : v;
  };
  const double switches = family_sum(text, "mpqls_precision_switches_total");
  if (std::isnan(switches)) return;
  const double single = tier("mpqls_precision_solves_total", "single");
  const double dbl = tier("mpqls_precision_solves_total", "double");
  if (single + dbl == 0.0) return;
  std::printf("precision tiers: %.0f single / %.0f double solves, %.0f escalations\n", single,
              dbl, switches);
}

/// Recursive indented rendering of one span and its children. Spans
/// arrive as a flat list with parent ids; children print in start order.
void print_span_tree(const std::vector<mpqls::Json>& spans, std::uint64_t parent_id,
                     double parent_us, int depth) {
  for (const auto& span : spans) {
    if (span.uint_or("parent", 0) != parent_id) continue;
    const double us = span.number_or("duration_us", 0.0);
    std::printf("%*s%-*s %9.3f ms", depth * 2, "", 24 - depth * 2,
                span.string_or("name", "?").c_str(), us / 1e3);
    if (parent_us > 0.0) {
      std::printf("  %5.1f%%", 100.0 * us / parent_us);
    } else {
      std::printf("        ");
    }
    if (span.bool_or("running", false)) std::printf("  [running]");
    if (span.contains("attrs") && !span.at("attrs").as_object().empty()) {
      std::printf("  ");
      bool first = true;
      for (const auto& [key, value] : span.at("attrs").as_object()) {
        std::printf("%s%s=%s", first ? "" : " ", key.c_str(),
                    value.is_string() ? value.as_string().c_str() : value.dump().c_str());
        first = false;
      }
    }
    std::printf("\n");
    print_span_tree(spans, span.uint_or("id", 0), us, depth + 1);
  }
}

/// `--trace JOB_ID`: fetch and render the span tree of one job.
int print_trace(mpqls::net::HttpClient& client, const std::string& job_id) {
  const auto response = client.get("/v1/jobs/" + job_id + "/trace");
  if (response.status != 200) {
    std::fprintf(stderr, "trace fetch failed (%d): %s", response.status, response.body.c_str());
    return 1;
  }
  const mpqls::Json body = mpqls::Json::parse(response.body);
  std::printf("trace %s  job %s  state %s\n", body.string_or("trace_id", "?").c_str(),
              body.string_or("job_id", job_id).c_str(), body.string_or("state", "?").c_str());
  const auto dropped = body.uint_or("spans_dropped", 0);
  if (dropped > 0) std::printf("(%llu spans dropped: buffer full)\n",
                               static_cast<unsigned long long>(dropped));
  if (!body.contains("spans")) {
    std::printf("(no spans recorded)\n");
    return 0;
  }
  std::vector<mpqls::Json> spans;
  for (const auto& span : body.at("spans").as_array()) spans.push_back(span);
  // Orphans (parent span dropped or still unpublished) would vanish from
  // a strict tree walk; promote them to top level so nothing is hidden.
  std::vector<mpqls::Json> roots_fixed = spans;
  for (auto& span : roots_fixed) {
    const std::uint64_t parent = span.uint_or("parent", 0);
    if (parent == 0) continue;
    bool found = false;
    for (const auto& other : spans) {
      if (other.uint_or("id", 0) == parent) {
        found = true;
        break;
      }
    }
    if (!found) span["parent"] = std::uint64_t{0};
  }
  print_span_tree(roots_fixed, 0, 0.0, 0);
  return 0;
}

/// Scrape /v1/metrics once for the status renderings below; empty on any
/// failure (status rendering is best-effort; results already printed).
std::string fetch_metrics(mpqls::net::HttpClient& client) {
  try {
    const auto response = client.get("/v1/metrics");
    if (response.status != 200) return {};
    return response.body;
  } catch (const std::exception&) {
    return {};
  }
}

/// When the daemon is a cluster coordinator, print its per-worker routing
/// gauges; against a plain worker daemon this finds no cluster series and
/// prints nothing.
void print_cluster_status(const std::string& text) {
  if (text.find("mpqls_cluster_worker_breaker_state") == std::string::npos) return;
  mpqls::TextTable table({"worker", "breaker", "in-flight", "affinity hit ratio"});
  for (int w = 0;; ++w) {
    const std::string label = "w" + std::to_string(w);
    const double breaker = labeled_metric(text, "mpqls_cluster_worker_breaker_state", label);
    if (std::isnan(breaker)) break;
    const double in_flight = labeled_metric(text, "mpqls_cluster_worker_in_flight", label);
    const double ratio = labeled_metric(text, "mpqls_cluster_worker_affinity_hit_ratio", label);
    const char* state = breaker == 0.0 ? "closed" : (breaker == 1.0 ? "half-open" : "OPEN");
    table.add_row({label, state, mpqls::fmt_fix(in_flight, 0), mpqls::fmt_fix(ratio, 2)});
  }
  std::printf("\ncluster worker status:\n");
  table.print(std::cout);
}

/// Distributed-execution posture scraped from /v1/healthz: the worker's
/// statevector qubit cap and every shard group it is currently a member
/// of (role, group size, peer endpoints). Prints nothing against a daemon
/// predating distributed execution or with no dist block to report.
void print_dist_status(mpqls::net::HttpClient& client) {
  using mpqls::Json;
  std::string body;
  try {
    const auto response = client.get("/v1/healthz");
    if (response.status != 200) return;
    body = response.body;
  } catch (const std::exception&) {
    return;
  }
  Json health;
  try {
    health = Json::parse(body);
  } catch (const std::exception&) {
    return;
  }
  if (!health.contains("dist")) return;
  const Json& dist = health.at("dist");
  const auto cap = dist.uint_or("max_statevector_qubits", 0);
  const auto& groups = dist.at("active_groups").as_array();
  if (cap == 0 && groups.empty()) return;

  std::printf("\ndistributed execution:");
  if (cap > 0) {
    std::printf(" local cap %llu qubits", static_cast<unsigned long long>(cap));
  } else {
    std::printf(" no local qubit cap");
  }
  std::printf(", %zu active shard group%s\n", groups.size(), groups.size() == 1 ? "" : "s");
  for (const auto& group : groups) {
    std::printf("  group %s: rank %llu of %llu, peers [",
                group.string_or("group", "?").c_str(),
                static_cast<unsigned long long>(group.uint_or("rank", 0)),
                static_cast<unsigned long long>(group.uint_or("world", 0)));
    bool first = true;
    for (const auto& peer : group.at("peers").as_array()) {
      std::printf("%s%s", first ? "" : ", ", peer.as_string().c_str());
      first = false;
    }
    std::printf("]\n");
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace mpqls;

  std::string host = "127.0.0.1";
  std::uint16_t port = 8080;
  int poll_ms = 100;
  int timeout_s = 600;
  bool use_binary = false;
  bool use_upload = false;
  std::string jobs_path;
  std::string cancel_id;
  std::string trace_id;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::stoi(argv[++i]));
    } else if (arg == "--poll-ms" && i + 1 < argc) {
      poll_ms = std::stoi(argv[++i]);
    } else if (arg == "--timeout-s" && i + 1 < argc) {
      timeout_s = std::stoi(argv[++i]);
    } else if (arg == "--binary") {
      use_binary = true;
    } else if (arg == "--upload") {
      use_upload = true;
    } else if (arg == "--cancel" && i + 1 < argc) {
      cancel_id = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_id = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      jobs_path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: submit_job [--host H] [--port P] [--poll-ms N] [--timeout-s N] "
                   "[--binary] [--upload] "
                   "(jobs.json | --cancel JOB_ID | --trace JOB_ID)\n");
      return 2;
    }
  }
  if (!cancel_id.empty()) {
    net::HttpClient client(host, port);
    const auto response = client.del("/v1/jobs/" + cancel_id);
    std::printf("%d %s", response.status, response.body.c_str());
    return response.status == 200 ? 0 : 1;
  }
  if (!trace_id.empty()) {
    net::HttpClient client(host, port);
    return print_trace(client, trace_id);
  }
  if (jobs_path.empty()) {
    std::fprintf(stderr, "submit_job: no job file given\n");
    return 2;
  }

  const auto jobs_text = read_text_file(jobs_path);
  if (!jobs_text) {
    std::fprintf(stderr, "cannot open job file: %s\n", jobs_path.c_str());
    return 2;
  }
  const Json doc = Json::parse(*jobs_text);
  std::vector<Json> jobs;
  if (doc.contains("jobs")) {
    for (const auto& j : doc.at("jobs").as_array()) jobs.push_back(j);
  } else {
    jobs.push_back(doc);
  }

  net::HttpClient client(host, port);
  std::printf("submitting %zu jobs to %s:%u%s%s\n", jobs.size(), host.c_str(),
              static_cast<unsigned>(port), use_binary ? " [binary frames]" : "",
              use_upload ? " [by matrix_ref]" : "");

  // One deadline bounds the whole run — 429 retries included, so a
  // permanently saturated daemon cannot hang the client.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);

  // PUT a kMatrix frame and return the server-assigned content hash.
  const auto upload_matrix = [&client](const std::string& frame) {
    const auto response = client.put("/v1/matrices", frame, wire::kContentType);
    if (response.status != 200 && response.status != 201) {
      throw std::runtime_error("matrix upload failed (" + std::to_string(response.status) +
                               "): " + response.body);
    }
    return service::u64_from_hex(Json::parse(response.body).at("matrix_ref").as_string());
  };

  // Materialize each job's transport body once. Under --binary/--upload
  // the job JSON is parsed into a SolveRequest first (scenario generators
  // run client-side; the frame codec ships explicit matrices only).
  struct Prepared {
    std::string label;
    std::string body;
    std::string matrix_frame;  ///< nonempty under --upload: the re-upload payload
  };
  std::vector<Prepared> prepared;
  prepared.reserve(jobs.size());
  const std::string content_type = use_binary ? wire::kContentType : "application/json";
  for (const auto& job : jobs) {
    Prepared p;
    p.label = job.string_or("id", "(unnamed)");
    if (use_binary || use_upload) {
      service::SolveRequest req = service::request_from_json(job);
      if (use_upload) {
        p.matrix_frame = wire::encode_matrix(req.matrix());
        req.matrix_ref = upload_matrix(p.matrix_frame);
      }
      // With matrix_ref set both encoders emit the by-ref form; the dense
      // matrix bytes never travel with the job again.
      p.body = use_binary ? wire::encode_request(req) : service::to_json(req).dump();
    } else {
      p.body = job.dump();
    }
    prepared.push_back(std::move(p));
  }

  struct Submitted {
    std::string label;
    std::string job_id;
  };
  std::vector<Submitted> submitted;
  std::vector<std::string> dist_notes;
  for (const auto& p : prepared) {
    const std::string& label = p.label;
    for (;;) {
      const auto response = client.post("/v1/jobs", p.body, content_type);
      if (response.status == 202) {
        const auto body = Json::parse(response.body);
        submitted.push_back({label, body.at("job_id").as_string()});
        break;
      }
      if (response.status == 429) {  // queue full: wait one beat and retry
        if (std::chrono::steady_clock::now() > deadline) {
          std::fprintf(stderr, "timed out waiting for queue capacity for '%s'\n", label.c_str());
          return 4;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
        continue;
      }
      if (response.status == 404 && !p.matrix_frame.empty()) {
        // Store miss — the worker restarted or evicted our entry. The ref
        // is a content hash, so re-uploading the same frame restores it
        // and the already-encoded body stays valid: re-upload and retry.
        if (std::chrono::steady_clock::now() > deadline) {
          std::fprintf(stderr, "timed out re-uploading matrix for '%s'\n", label.c_str());
          return 4;
        }
        std::fprintf(stderr, "job '%s': matrix_ref unknown to server, re-uploading\n",
                     label.c_str());
        upload_matrix(p.matrix_frame);
        continue;
      }
      std::fprintf(stderr, "job '%s' refused (%d): %s", label.c_str(), response.status,
                   response.body.c_str());
      if (response.status == 503) return 3;  // daemon draining; stop submitting
      break;                                 // 400 etc.: skip this job, keep going
    }
  }

  TextTable table({"job", "job id", "state", "queue (ms)", "run (ms)", "converged"});
  // Refused jobs (400 etc.) already failed the run even though we keep
  // polling the ones that were admitted.
  bool all_ok = submitted.size() == jobs.size();
  for (const auto& s : submitted) {
    Json status;
    for (;;) {
      const auto response = client.get("/v1/jobs/" + s.job_id);
      if (response.status != 200) {
        std::fprintf(stderr, "poll %s failed (%d)\n", s.job_id.c_str(), response.status);
        all_ok = false;
        break;
      }
      status = Json::parse(response.body);
      const std::string state = status.at("state").as_string();
      if (state == "done" || state == "failed") break;
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "timed out waiting for %s\n", s.job_id.c_str());
        return 4;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
    if (!status.is_object()) continue;
    const std::string state = status.at("state").as_string();
    bool converged = false;
    if (state == "done") {
      if (use_binary) {
        // Pull the result through the binary route — a kSolveResult frame
        // instead of the JSON splice the status poll carries.
        const auto response =
            client.get("/v1/jobs/" + s.job_id + "/result", {{"Accept", wire::kContentType}});
        if (response.status != 200) {
          std::fprintf(stderr, "result fetch %s failed (%d)\n", s.job_id.c_str(),
                       response.status);
          all_ok = false;
        } else {
          converged = wire::decode_result(response.body).all_converged;
        }
      } else {
        converged = status.at("result").at("all_converged").as_bool();
      }
    }
    all_ok = all_ok && (state == "done" && converged);
    table.add_row({s.label, s.job_id, state,
                   fmt_fix(status.at("queue_seconds").as_number() * 1e3, 1),
                   fmt_fix(status.at("run_seconds").as_number() * 1e3, 1),
                   state == "failed" ? status.string_or("error", "?") : (converged ? "yes" : "NO")});
    // Jobs that ran as a shard-group member carry a dist telemetry block:
    // render the rank's place in the group and what the exchanges cost.
    if (status.contains("result") && status.at("result").contains("dist")) {
      const Json& dist = status.at("result").at("dist");
      dist_notes.push_back(
          s.label + ": shard rank " + std::to_string(dist.uint_or("shard_rank", 0)) + "/" +
          std::to_string(dist.uint_or("shard_world", 0)) + ", " +
          std::to_string(dist.uint_or("exchange_rounds", 0)) + " exchange rounds (" +
          std::to_string(dist.uint_or("plan_naive_rounds", 0)) + " naive), " +
          fmt_fix(static_cast<double>(dist.uint_or("bytes_moved", 0)) / (1024.0 * 1024.0), 1) +
          " MiB moved");
    }
  }
  table.print(std::cout);
  if (!dist_notes.empty()) {
    std::printf("\ndistributed solves:\n");
    for (const auto& note : dist_notes) std::printf("  %s\n", note.c_str());
  }
  const std::string metrics_text = fetch_metrics(client);
  print_panel_status(metrics_text);
  print_precision_status(metrics_text);
  print_store_status(metrics_text);
  print_cluster_status(metrics_text);
  print_dist_status(client);
  return all_ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "submit_job: %s\n", e.what());
  return 2;
}
