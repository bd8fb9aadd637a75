#include "exp/explain.h"

#include <cstdio>
#include <unordered_map>

#include "netsim/pcap.h"
#include "obs/trace_export.h"

namespace ys::exp {

namespace {

using obs::GfwBehavior;
using obs::TraceEvent;
using obs::TraceKind;

struct Index {
  std::vector<TraceEvent> events;
  std::unordered_map<u64, std::size_t> by_id;

  explicit Index(const obs::TraceRecorder& trace) : events(trace.events()) {
    by_id.reserve(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) by_id[events[i].id] = i;
  }

  const TraceEvent* get(u64 id) const {
    auto it = by_id.find(id);
    return it == by_id.end() ? nullptr : &events[it->second];
  }
};

/// Walk caused_by links from `start` to the root (bounded against cycles,
/// which a correct trace never has).
std::vector<u64> chain_from(const Index& ix, u64 start) {
  std::vector<u64> chain;
  u64 id = start;
  while (id != 0 && chain.size() < 64) {
    chain.push_back(id);
    const TraceEvent* ev = ix.get(id);
    if (ev == nullptr) break;  // link points at an evicted event
    id = ev->caused_by;
  }
  return chain;
}

std::string packet_blurb(const obs::PacketRef& p) {
  if (p.id == 0) return "?";
  std::string out = "packet #" + std::to_string(p.id);
  if (p.is_tcp) {
    out += " (seq=" + std::to_string(p.seq);
    if (p.payload_len != 0) {
      out += ", " + std::to_string(p.payload_len) + "B";
    }
    out += ")";
  }
  if (p.crafted) out += " [insertion]";
  return out;
}

/// Find the last event matching `pred`, or nullptr.
template <typename Pred>
const TraceEvent* find_last(const Index& ix, Pred pred) {
  for (auto it = ix.events.rbegin(); it != ix.events.rend(); ++it) {
    if (pred(*it)) return &*it;
  }
  return nullptr;
}

bool is_gfw_actor(const TraceEvent& ev) {
  return ev.actor.rfind("gfw", 0) == 0;
}

/// Fill chain/insertion/decision fields from the decisive event.
void resolve_chain(const Index& ix, Attribution& out) {
  out.chain = chain_from(ix, out.decisive_event);
  for (u64 id : out.chain) {
    const TraceEvent* ev = ix.get(id);
    if (ev == nullptr) continue;
    if (ev->kind == TraceKind::kSend && ev->packet.crafted &&
        out.causal_insertion_event == 0) {
      out.causal_insertion_event = ev->id;
    }
    if (ev->kind == TraceKind::kDecision) {
      out.strategy_decision_event = ev->id;  // deepest decision wins (root)
    }
  }
}

/// Summarize the trace's injected-fault events (TraceKind::kFault) so the
/// verdict can be attributed to the fault plan instead of the censor. A
/// fault on the decisive event's causal chain is called out explicitly.
// Fault event details carry the full packet summary with the injector's
// reason in trailing parentheses ("TCP ...  (loss burst)"); non-packet
// notes are "reason: specifics". Reduce either shape to the bare reason so
// the note groups hundreds of events into a handful of causes.
std::string fault_reason(const std::string& detail) {
  const std::size_t open = detail.rfind(" (");
  if (open != std::string::npos) {
    const std::size_t close = detail.find(')', open);
    if (close != std::string::npos) {
      return detail.substr(open + 2, close - open - 2);
    }
  }
  if (const std::size_t colon = detail.find(':');
      colon != std::string::npos) {
    return detail.substr(0, colon);
  }
  return detail;
}

void attribute_faults(const Index& ix, Attribution& out) {
  // reason -> count, in first-seen order for stable rendering.
  std::vector<std::pair<std::string, int>> reasons;
  std::size_t total = 0;
  for (const TraceEvent& ev : ix.events) {
    if (ev.kind != TraceKind::kFault) continue;
    ++total;
    const std::string reason = fault_reason(ev.detail);
    bool found = false;
    for (auto& [seen, count] : reasons) {
      if (seen == reason) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) reasons.emplace_back(reason, 1);
  }
  if (total == 0) return;

  bool on_chain = false;
  for (u64 id : out.chain) {
    const TraceEvent* ev = ix.get(id);
    if (ev != nullptr && ev->kind == TraceKind::kFault) {
      on_chain = true;
      break;
    }
  }
  std::string note =
      "faults: " + std::to_string(total) + " injected fault event" +
      (total == 1 ? "" : "s") + " (";
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    if (i > 0) note += ", ";
    note += reasons[i].first;
    if (reasons[i].second > 1) {
      note += " x" + std::to_string(reasons[i].second);
    }
  }
  note += ")";
  note += on_chain ? "; one is on the decisive causal chain"
                   : "; none on the decisive causal chain";
  out.fault_note = note;
}

/// The per-outcome classification; the public entry point below layers
/// fault attribution on top of whatever this returns.
Attribution classify(const Index& ix, Outcome outcome, bool old_model) {
  Attribution out;
  out.outcome = outcome;

  const char* model = old_model ? "prior-model" : "evolved-model";

  if (outcome == Outcome::kTrialError) {
    // Not a §3.4 class: the simulation itself was cut off (event cap or
    // virtual-time deadline) before the trial could reach a verdict. The
    // decisive event, if any, is the loop's own kNote about the cap.
    const TraceEvent* note = find_last(ix, [](const TraceEvent& ev) {
      return ev.kind == TraceKind::kNote && ev.actor == "loop";
    });
    if (note != nullptr) {
      out.decisive_event = note->id;
      resolve_chain(ix, out);
    }
    out.verdict = "trial-error: the simulation was cut off (event cap or "
                  "deadline) before reaching a verdict — not a censorship "
                  "outcome";
    return out;
  }

  if (outcome == Outcome::kFailure2) {
    // The censor won: the decisive event is the detection (or block-period
    // / IP-block hit) that triggered the reset volley.
    const TraceEvent* decisive = find_last(ix, [](const TraceEvent& ev) {
      return ev.gfw.behavior == GfwBehavior::kDetection ||
             ev.gfw.behavior == GfwBehavior::kBlockPeriod ||
             ev.gfw.behavior == GfwBehavior::kIpBlock;
    });
    if (decisive == nullptr) {
      out.verdict = "failure-2: GFW resets observed but no detection event "
                    "was retained in the trace";
      return out;
    }
    out.decisive_event = decisive->id;
    out.behavior = decisive->gfw.behavior;
    resolve_chain(ix, out);
    std::string trigger = "?";
    if (const TraceEvent* cause = ix.get(decisive->caused_by)) {
      trigger = packet_blurb(cause->packet);
    }
    out.verdict = std::string("failure-2: ") + decisive->actor + " " +
                  to_string(decisive->gfw.behavior) + " (" + decisive->detail +
                  "); trigger: " + trigger;
    return out;
  }

  if (outcome == Outcome::kFailure1) {
    // Silent death: usually a middlebox (not the GFW) tearing its
    // connection tracking down, often because of our own insertion packet.
    const TraceEvent* decisive = find_last(ix, [](const TraceEvent& ev) {
      return !is_gfw_actor(ev) && ev.kind == TraceKind::kState &&
             (ev.gfw.behavior == GfwBehavior::kRstTeardown ||
              ev.gfw.behavior == GfwBehavior::kFinTeardown);
    });
    if (decisive != nullptr) {
      out.decisive_event = decisive->id;
      out.behavior = decisive->gfw.behavior;
      resolve_chain(ix, out);
      out.verdict = std::string("failure-1: ") + decisive->actor +
                    " tore down connection tracking on " +
                    packet_blurb(decisive->packet) +
                    "; the flow was blackholed from there";
      return out;
    }
    // No middlebox event: look for loss/expiry of a client packet, else
    // call it a timeout.
    const TraceEvent* lost = find_last(ix, [](const TraceEvent& ev) {
      return ev.kind == TraceKind::kLoss || ev.kind == TraceKind::kExpire;
    });
    if (lost != nullptr) {
      out.decisive_event = lost->id;
      resolve_chain(ix, out);
      out.verdict = std::string("failure-1: ") + packet_blurb(lost->packet) +
                    (lost->kind == TraceKind::kExpire ? " expired in transit"
                                                      : " lost in transit") +
                    "; no response before the trial ended";
      return out;
    }
    out.verdict = "failure-1: no response and no decisive trace event — "
                  "the connection silently timed out";
    return out;
  }

  // Success: the evasion worked. The decisive event is the last GFW
  // state-machine move caused (transitively) by a crafted insertion
  // packet — the mechanism the strategy exploited.
  const TraceEvent* decisive = find_last(ix, [&](const TraceEvent& ev) {
    if (!is_gfw_actor(ev) || ev.kind != TraceKind::kState) return false;
    if (!ev.gfw.valid()) return false;
    for (u64 id : chain_from(ix, ev.caused_by)) {
      const TraceEvent* hop = ix.get(id);
      if (hop != nullptr && hop->kind == TraceKind::kSend &&
          hop->packet.crafted) {
        return true;
      }
    }
    return false;
  });
  if (decisive != nullptr) {
    out.decisive_event = decisive->id;
    out.behavior = decisive->gfw.behavior;
    resolve_chain(ix, out);
    std::string via;
    if (const TraceEvent* ins = ix.get(out.causal_insertion_event)) {
      via = " via insertion " + packet_blurb(ins->packet);
    }
    std::string decided;
    if (const TraceEvent* dec = ix.get(out.strategy_decision_event)) {
      decided = "; decision: " + dec->detail;
    }
    out.verdict = std::string("success: ") + decisive->actor + " " +
                  to_string(decisive->gfw.behavior) + " [" + model + "] (" +
                  decisive->detail + ")" + via + decided;
    return out;
  }

  // No crafted-caused state move: either no strategy ran and the censor
  // just missed, or the detector was overloaded.
  const TraceEvent* missed = find_last(ix, [](const TraceEvent& ev) {
    return ev.gfw.behavior == GfwBehavior::kDetectionMissed;
  });
  if (missed != nullptr) {
    out.decisive_event = missed->id;
    out.behavior = missed->gfw.behavior;
    resolve_chain(ix, out);
    out.verdict = std::string("success: ") + missed->actor +
                  " detector fired but injection was skipped (overload) — "
                  "the paper's no-strategy success path";
    return out;
  }
  out.verdict = std::string("success: no GFW detection event [") + model +
                "] — the censored content was never flagged";
  return out;
}

}  // namespace

Attribution attribute_verdict(const obs::TraceRecorder& trace,
                              Outcome outcome, bool old_model) {
  const Index ix(trace);
  Attribution out = classify(ix, outcome, old_model);
  attribute_faults(ix, out);
  return out;
}

Replay run_traced(Scenario& sc,
                  const std::function<TrialResult(Scenario&)>& body,
                  const std::string& trace_path, const std::string& pcap_path) {
  net::PcapWriter writer;
  if (!pcap_path.empty()) {
    if (auto st = writer.open(pcap_path); st.ok()) {
      sc.path().set_client_capture(
          [&writer](const net::Packet& pkt, SimTime at) {
            (void)writer.write(pkt, at);
          });
    } else {
      std::fprintf(stderr, "pcap: %s\n", st.error().message.c_str());
    }
  }

  Replay replay;
  replay.result = body(sc);
  sc.path().set_client_capture({});  // the capture must not outlive `writer`
  replay.old_model = sc.path_runs_old_model();
  replay.ladder = sc.trace().render();
  replay.attribution =
      attribute_verdict(sc.trace(), replay.result.outcome, replay.old_model);
  if (!trace_path.empty()) {
    if (!obs::write_chrome_trace(trace_path, sc.trace())) {
      std::fprintf(stderr, "cannot write trace file %s\n", trace_path.c_str());
    }
  }
  return replay;
}

}  // namespace ys::exp
