#include "obs/trace_export.h"

#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "core/json.h"

namespace ys::obs {

namespace {

void append_kv(std::string& out, const char* key, u64 v, bool* first) {
  if (!*first) out += ',';
  *first = false;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_kv(std::string& out, const char* key, const std::string& v,
               bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":";
  out += '"' + json::escape(v) + '"';
}

}  // namespace

std::string to_chrome_trace(const TraceRecorder& trace) {
  const std::vector<TraceEvent> events = trace.events();

  // Tracks: one tid per actor, in first-appearance order (deterministic).
  std::unordered_map<std::string, u64> tids;
  std::vector<std::string> actors;
  for (const auto& ev : events) {
    if (tids.emplace(ev.actor, tids.size() + 1).second) {
      actors.push_back(ev.actor);
    }
  }

  // Which event ids survive in the ring (flow arrows need both ends).
  std::unordered_map<u64, const TraceEvent*> retained;
  retained.reserve(events.size());
  for (const auto& ev : events) retained.emplace(ev.id, &ev);

  std::string out;
  out.reserve(events.size() * 160 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first_event = true;
  auto begin_event = [&]() -> std::string& {
    if (!first_event) out += ',';
    first_event = false;
    out += '{';
    return out;
  };

  for (std::size_t i = 0; i < actors.size(); ++i) {
    begin_event();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"M\",\"pid\":1,\"tid\":%llu,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":",
                  static_cast<unsigned long long>(i + 1));
    out += buf;
    out += '"' + json::escape(actors[i]) + '"';
    out += "}}";
  }

  for (const auto& ev : events) {
    const u64 tid = tids[ev.actor];
    begin_event();
    char buf[160];
    std::string name = to_string(ev.kind);
    if (ev.gfw.valid()) {
      name += ':';
      name += to_string(ev.gfw.behavior);
    }
    out += "\"ph\":\"X\",\"pid\":1,";
    std::snprintf(buf, sizeof(buf), "\"tid\":%llu,\"ts\":%lld,\"dur\":1,",
                  static_cast<unsigned long long>(tid),
                  static_cast<long long>(ev.at.us));
    out += buf;
    out += "\"cat\":\"trace\",\"name\":";
    out += '"' + json::escape(name) + '"';
    out += ",\"args\":{";
    bool first = true;
    append_kv(out, "id", ev.id, &first);
    if (ev.caused_by != 0) append_kv(out, "caused_by", ev.caused_by, &first);
    if (ev.packet.id != 0) {
      append_kv(out, "packet", ev.packet.id, &first);
      if (ev.packet.is_tcp) {
        append_kv(out, "seq", ev.packet.seq, &first);
        append_kv(out, "ack", ev.packet.ack, &first);
        append_kv(out, "flags", ev.packet.flags, &first);
      }
      append_kv(out, "payload_len", ev.packet.payload_len, &first);
      append_kv(out, "ttl", ev.packet.ttl, &first);
      append_kv(out, "dir", std::string(ev.packet.dir == 0 ? "c2s" : "s2c"),
                &first);
      if (ev.packet.crafted) append_kv(out, "crafted", u64{1}, &first);
    }
    if (ev.gfw.valid()) {
      append_kv(out, "gfw_from", std::string(to_string(ev.gfw.from)), &first);
      append_kv(out, "gfw_to", std::string(to_string(ev.gfw.to)), &first);
    }
    if (!ev.detail.empty()) append_kv(out, "detail", ev.detail, &first);
    out += "}}";
  }

  // Flow arrows for causal links with both ends retained.
  for (const auto& ev : events) {
    if (ev.caused_by == 0) continue;
    auto it = retained.find(ev.caused_by);
    if (it == retained.end()) continue;
    const TraceEvent& cause = *it->second;
    char buf[200];
    begin_event();
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"s\",\"pid\":1,\"tid\":%llu,\"ts\":%lld,"
                  "\"cat\":\"cause\",\"name\":\"cause\",\"id\":%llu",
                  static_cast<unsigned long long>(tids[cause.actor]),
                  static_cast<long long>(cause.at.us),
                  static_cast<unsigned long long>(ev.id));
    out += buf;
    out += '}';
    begin_event();
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%lld,\"cat\":\"cause\",\"name\":\"cause\","
                  "\"id\":%llu",
                  static_cast<unsigned long long>(tids[ev.actor]),
                  static_cast<long long>(ev.at.us),
                  static_cast<unsigned long long>(ev.id));
    out += buf;
    out += '}';
  }

  out += "]}";
  return out;
}

bool write_chrome_trace(const std::string& path, const TraceRecorder& trace) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string doc = to_chrome_trace(trace);
  const bool write_ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool close_ok = std::fclose(f) == 0;
  return write_ok && close_ok;
}

}  // namespace ys::obs
