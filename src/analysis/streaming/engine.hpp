// The streaming analysis engine (DESIGN.md §13): tumbling virtual-time
// windows, watermark-driven completion, derived monitors, and NDJSON
// snapshot publication — the piece that turns the flight recorder into a
// live monitor.
//
// Two planes, deliberately separate:
//
//   observe(e)    the PER-PROCESSOR plane. Every decoded event, each
//                 processor's events in that processor's order, processors
//                 interleaved arbitrarily (live pipelines hand buffers
//                 over as the watchdog drains them, not in global time
//                 order). Window aggregates are pure per-window sums and
//                 per-processor heartbeat captures, so the numbers a
//                 window settles on are a function of the event *set*,
//                 never the arrival order — which is what makes a live
//                 snapshot of a completed window byte-identical to an
//                 offline replay of the same files. The folds that do not
//                 need merged order (Fold::needsMergedOrder) feed here.
//   onOrdered(e)  the MERGED plane: events in merged (timestamp,
//                 processor) order — from a StreamCursor/OrderedMerger —
//                 feeding only the folds that need it (lock contention).
//                 Only majors in mergedMajorMask() need to reach it, so a
//                 live feed merges just those.
//
// A window completes when the watermark — the minimum last-seen timestamp
// across every processor that has produced events — passes its end; the
// derived-monitor inputs for that window (each processor's newest
// heartbeat at or before the window end) are then guaranteed ingested,
// because per-processor streams are timestamp-ordered. Monitor values are
// evaluated lazily at snapshot time from the same captured state, so a
// straggler processor joining late corrects, rather than corrupts, the
// published numbers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/streaming/fold.hpp"
#include "analysis/streaming/monitors.hpp"
#include "core/monitor.hpp"

namespace ktrace::analysis::streaming {

/// The one place window geometry is computed, so the daemon and the
/// offline replay can never disagree on it.
inline uint64_t windowTicksForMs(double windowMs, double ticksPerSecond) {
  const double ticks = windowMs * ticksPerSecond / 1000.0;
  return ticks < 1.0 ? 1 : static_cast<uint64_t>(ticks);
}

struct StreamEngineConfig {
  uint64_t windowTicks = 0;     // 0: windowing disabled (folds only)
  double ticksPerSecond = 0.0;  // for seconds-valued variables and display
  size_t maxWindows = 512;      // retained window ring; older ones age out
};

class StreamEngine {
 public:
  explicit StreamEngine(StreamEngineConfig config,
                        std::vector<DerivedMonitor> monitors = {});

  /// Routes the fold by its ordering contract: merged-order folds feed
  /// from onOrdered(), the others from observe().
  void addFold(std::unique_ptr<Fold> fold);

  /// Per-processor plane: decoded events, each processor's in its own
  /// order (the window state alone would accept any order).
  void observe(std::span<const DecodedEvent> events);
  void observe(const DecodedEvent& event) { observe({&event, 1}); }

  /// Merged plane: merged-order feed for the folds that need it.
  void onOrdered(const DecodedEvent& event);

  /// Union of the merged-order folds' major masks: events of other majors
  /// never need to pass through an ordering merge.
  uint64_t mergedMajorMask() const noexcept { return mergedMask_; }

  /// End of stream: every window with data completes (there is no more
  /// data to wait for) and the folds finalize.
  void finish();

  uint64_t eventsObserved() const noexcept { return eventsObserved_; }
  uint64_t windowsCompleted() const noexcept { return windowsCompleted_; }
  uint64_t watermark() const noexcept { return watermark_; }

  /// NDJSON snapshot: one "top" line, one "window" line per retained
  /// *completed* window (ascending index), one "monitor" summary line per
  /// derived monitor. Every line carries the tenant name. Window lines
  /// are a pure function of the ingested event set, so the final live
  /// snapshot and an offline replay of the same files print them
  /// byte-identically.
  std::string snapshotJson(const std::string& tenant) const;

  const std::vector<std::unique_ptr<Fold>>& folds() const noexcept {
    return folds_;
  }

 private:
  struct Window {
    uint64_t index = 0;
    uint64_t events = 0;
    std::map<uint32_t, uint64_t> perProcessor;
    bool complete = false;
  };
  struct HeartbeatAt {
    uint64_t tick = 0;
    Heartbeat hb{};
  };
  struct Route {
    Fold* fold = nullptr;
    uint64_t mask = 0;
  };
  // Dense per-processor state. The counters of the window this
  // processor's last event fell into are cached: a following event in
  // [windowStart, windowEnd) bumps them with no lookup. Pruning a window
  // clears every cache.
  struct ProcTick {
    uint64_t lastTick = 0;
    bool seen = false;
    uint64_t windowStart = 0;
    uint64_t windowEnd = 0;
    uint64_t* windowEvents = nullptr;
    uint64_t* cpuEvents = nullptr;
  };

  void countInWindow(ProcTick& proc, uint32_t processor, uint64_t tick);
  Window* windowFor(uint64_t index);
  void completeWindows();
  MonitorVars varsForWindow(const Window& w, uint64_t cumEvents) const;

  StreamEngineConfig config_;
  std::vector<DerivedMonitor> monitors_;
  std::vector<std::unique_ptr<Fold>> folds_;
  std::vector<Route> perProcessorFolds_;
  std::vector<Route> mergedFolds_;
  uint64_t mergedMask_ = 0;

  std::map<uint64_t, Window> windows_;
  std::vector<ProcTick> procs_;
  size_t procsSeen_ = 0;
  // Per-processor heartbeat history, timestamp-ordered (per-processor
  // streams are timestamp-ordered by construction).
  std::map<uint32_t, std::vector<HeartbeatAt>> heartbeats_;

  // completeWindows() has work only once windows were added or the
  // watermark reached the end of the oldest window it left incomplete.
  bool windowsAdded_ = false;
  uint64_t nextWindowEnd_ = UINT64_MAX;
  uint64_t watermark_ = 0;
  uint64_t eventsObserved_ = 0;
  uint64_t windowsCompleted_ = 0;
  uint64_t completedBelow_ = 0;  // windows with index < this are complete
  uint64_t prunedBelow_ = 0;     // aged-out indices; late events counted, not resurrected
  uint64_t lateEvents_ = 0;
  bool finished_ = false;
};

}  // namespace ktrace::analysis::streaming
