// Span stitching and self times for perf_e2e's traced run. One job's trace
// is the bench's own spans (a "job" root with "submit" and "poll"
// children) with the server's span list, fetched from
// GET /v1/jobs/{id}/trace, hung under the root — the same span shape
// service::trace_to_json renders, plus a "self_us" per span.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/trace.hpp"
#include "service/json_io.hpp"

namespace mpqls::bench::e2e {

/// Server span ids are shifted by this base when stitched under a bench
/// span, so they never collide with the bench's own ids (the convention
/// the coordinator uses when it stitches worker spans under its proxy).
inline constexpr std::uint64_t kServerSpanBase = std::uint64_t{1} << 24;

/// Self time of every span: its duration minus the part of its interval
/// that its descendants cover. Descendants rather than children because a
/// coordinator-stitched trace hangs a worker's queue/run spans under a
/// proxy span they outlive; clipping each descendant to the span keeps the
/// answer right for both shapes.
inline void annotate_self_times(Json& trace) {
  auto& spans = trace["spans"].as_array();
  const std::size_t n = spans.size();
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index[spans[i].uint_or("id", 0)] = i;
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = index.find(spans[i].uint_or("parent", 0));
    if (it != index.end() && it->second != i) children[it->second].push_back(i);
  }

  std::vector<char> seen(n);
  std::vector<std::pair<double, double>> covered;
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    const double start = spans[i].number_or("start_us", 0.0);
    const double duration = spans[i].number_or("duration_us", 0.0);
    const double end = start + duration;
    if (children[i].empty()) {
      spans[i]["self_us"] = duration;
      continue;
    }
    covered.clear();
    std::fill(seen.begin(), seen.end(), 0);
    stack.assign(children[i].begin(), children[i].end());
    while (!stack.empty()) {
      const std::size_t d = stack.back();
      stack.pop_back();
      if (seen[d]) continue;
      seen[d] = 1;
      const double s = std::max(start, spans[d].number_or("start_us", 0.0));
      const double e = std::min(end, spans[d].number_or("start_us", 0.0) +
                                         spans[d].number_or("duration_us", 0.0));
      if (e > s) covered.emplace_back(s, e);
      stack.insert(stack.end(), children[d].begin(), children[d].end());
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0.0;
    double run_start = 0.0, run_end = -1.0;
    for (const auto& [s, e] : covered) {
      if (s > run_end) {
        if (run_end > run_start) union_us += run_end - run_start;
        run_start = s;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_start) union_us += run_end - run_start;
    spans[i]["self_us"] = std::max(0.0, duration - union_us);
  }
}

/// The bench's spans of one job (`bench`) with `server`'s spans hung
/// under the bench span `root`. Server start offsets count from the
/// server trace's epoch, placed at `anchor_us` on the bench timeline: the
/// instant the submit POST was sent. The server mints its trace while
/// handling that request, so the placement is off by one loopback transit.
inline Json stitch(const trace::Trace& bench, std::uint64_t root, const Json& server,
                   double anchor_us) {
  Json merged = service::trace_to_json(bench);
  merged["server_trace_id"] = server.string_or("trace_id", "");
  merged["spans_dropped"] = merged.uint_or("spans_dropped", 0) + server.uint_or("spans_dropped", 0);
  if (server.contains("spans")) {
    for (const auto& span : server.at("spans").as_array()) {
      Json shifted = span;
      shifted["id"] = span.uint_or("id", 0) + kServerSpanBase;
      const std::uint64_t parent = span.uint_or("parent", 0);
      shifted["parent"] = parent == 0 ? root : parent + kServerSpanBase;
      shifted["start_us"] = span.number_or("start_us", 0.0) + anchor_us;
      merged["spans"].push_back(std::move(shifted));
    }
  }
  annotate_self_times(merged);
  return merged;
}

/// Summed duration (seconds) of the spans with one of `names`.
inline double span_seconds(const Json& trace, std::initializer_list<std::string_view> names) {
  double total_us = 0.0;
  for (const auto& span : trace.at("spans").as_array()) {
    const std::string& name = span.at("name").as_string();
    if (std::find(names.begin(), names.end(), name) != names.end()) {
      total_us += span.number_or("duration_us", 0.0);
    }
  }
  return total_us * 1e-6;
}

/// Share of the root span's duration that no named leaf accounts for: the
/// summed self time of every span that has children (the root included),
/// over the root's duration. A layer whose work runs outside any child
/// span (say, the classical residual between replay spans) shows up here.
/// The root is the one span without a parent: stitch() hangs every server
/// span under the bench's job span.
inline double unaccounted_fraction(const Json& trace) {
  const auto& spans = trace.at("spans").as_array();
  std::unordered_map<std::uint64_t, bool> has_children;
  for (const auto& span : spans) has_children[span.uint_or("parent", 0)] = true;
  double root_us = 0.0, interior_self_us = 0.0;
  for (const auto& span : spans) {
    if (span.uint_or("parent", 0) == 0) root_us = span.number_or("duration_us", 0.0);
    if (has_children.count(span.uint_or("id", 0)) != 0) {
      interior_self_us += span.number_or("self_us", 0.0);
    }
  }
  return root_us > 0.0 ? interior_self_us / root_us : 0.0;
}

}  // namespace mpqls::bench::e2e
