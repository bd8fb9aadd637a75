// Verdict attribution: walk a trial's causal trace backwards from the
// decisive event to the packet (and the strategy decision) that caused it.
//
// This is the analysis half of `yourstate explain`: given the structured
// trace of one trial and its §3.4 outcome, name the mechanism — which GFW
// behavior fired (or failed to), which insertion packet made it fire, and
// which selector/strategy decision crafted that packet.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "exp/trial.h"
#include "obs/trace.h"

namespace ys::exp {

/// The causal story of one trial verdict.
struct Attribution {
  Outcome outcome = Outcome::kFailure1;
  /// One line: "failure-2: gfw-2 keyword detected ..." — the headline
  /// `yourstate explain` prints under the ladder.
  std::string verdict;
  /// The trace event that decided the outcome (0 if none found).
  u64 decisive_event = 0;
  /// The kSend of the crafted insertion packet that caused the decisive
  /// event, when the chain reaches one (success stories).
  u64 causal_insertion_event = 0;
  /// The kDecision (strategy armed / selector pick) at the chain's root.
  u64 strategy_decision_event = 0;
  /// The named GFW/middlebox behavior of the decisive event.
  obs::GfwBehavior behavior = obs::GfwBehavior::kNone;
  /// The full caused_by chain, decisive event first, root last.
  std::vector<u64> chain;
  /// Injected-fault attribution: non-empty when the trace carries kFault
  /// events (an active fault plan touched this trial). Summarizes the
  /// injected faults by reason, and says whether one sits on the causal
  /// chain of the decisive event.
  std::string fault_note;
};

/// Attribute `outcome` to its causal mechanism using the trial's trace.
/// `old_model` is Scenario::path_runs_old_model() — it only flavors the
/// wording for success stories with no explicit state event.
Attribution attribute_verdict(const obs::TraceRecorder& trace,
                              Outcome outcome, bool old_model);

/// One traced re-run of a grid coordinate.
struct Replay {
  TrialResult result;
  std::string ladder;       ///< rendered text trace
  Attribution attribution;  ///< causal verdict attribution
  bool old_model = false;   ///< the path ran the prior GFW model
  /// Packets the capture wrote to the pcap; nullopt when none was open.
  std::optional<std::size_t> pcap_packets;
  bool trace_written = false;  ///< the Chrome trace reached its file
};

/// The one traced-run harness behind every bench's replay, the fleet's
/// replay_flow, the search engine's replay and `yourstate trial`: attach
/// the client wire capture to `pcap_path` (when non-empty), run `body` on
/// `sc`, render the ladder, attribute the verdict, and write the Chrome
/// trace to `trace_path` (when non-empty). Capture and trace-file failures
/// are warned about on stderr, not fatal.
Replay run_traced(Scenario& sc,
                  const std::function<TrialResult(Scenario&)>& body,
                  const std::string& trace_path, const std::string& pcap_path);

}  // namespace ys::exp
