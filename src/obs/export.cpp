#include "obs/export.h"

#include <cstdio>

#include "core/json.h"

namespace ys::obs {

std::string to_table(const Snapshot& snap) {
  std::string out;
  char line[160];
  for (const auto& [name, value] : snap.counters) {
    std::snprintf(line, sizeof(line), "%-44s counter   %12llu\n",
                  name.c_str(), static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, value] : snap.gauges) {
    std::snprintf(line, sizeof(line), "%-44s gauge     %12.3f\n",
                  name.c_str(), value);
    out += line;
  }
  for (const auto& [name, h] : snap.histograms) {
    std::snprintf(line, sizeof(line),
                  "%-44s histogram %12llu  sum=%.1f  p50=%.1f  p95=%.1f  "
                  "p99=%.1f\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.sum, h.percentile(0.50), h.percentile(0.95),
                  h.percentile(0.99));
    out += line;
  }
  return out;
}

std::string to_json(const Snapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json::escape(name) +
           "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json::escape(name) + "\": " + json::number(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json::escape(name) + "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += json::number(h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + json::number(h.sum) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace ys::obs
