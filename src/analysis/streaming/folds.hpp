// The four shipped analyses, ported onto the Fold interface (DESIGN.md
// §13). Each fold is the single implementation of its analysis: the
// post-hoc classes (LockAnalysis, EventStats, Profile, CompletenessReport)
// construct one, replay a MergeCursor through it, and steal the results —
// so a fold run to EOF over a closed trace is bit-identical to the
// pre-streaming tools, and the live path shares every line of logic.
//
// Ordering contracts (Fold::needsMergedOrder, Fold::majorMask):
//   LockContentionFold   needs exact merged (timestamp, processor) order —
//                        row creation order and start→acquire matching
//                        depend on it. Consumes Lock events only.
//   EventRateFold        order-insensitive (min/max/sum aggregation).
//   ProfileFold          order-insensitive (pure histogram); Prof only.
//   CompletenessFold     needs per-processor relative order only (any
//                        interleaving across processors is fine — exactly
//                        what a merged feed preserves).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/completeness.hpp"
#include "analysis/event_stats.hpp"
#include "analysis/lock_analysis.hpp"
#include "analysis/streaming/fold.hpp"
#include "core/monitor.hpp"

namespace ktrace::analysis::streaming {

/// Lock contention (the Figure 7 tool) as a fold.
class LockContentionFold final : public Fold {
 public:
  const char* name() const noexcept override { return "locks"; }
  bool needsMergedOrder() const noexcept override { return true; }
  uint64_t majorMask() const noexcept override {
    return TraceMask::bit(Major::Lock);
  }
  void onEvent(const DecodedEvent& event) override;
  void finish() override;
  std::string summaryJson() const override;

  const std::vector<LockStats>& rows() const noexcept { return rows_; }
  uint64_t unmatchedContends() const noexcept { return unmatchedContends_; }
  std::vector<LockStats> takeRows() noexcept;

 private:
  static constexpr size_t kNoRow = std::numeric_limits<size_t>::max();

  // One state per (lock, pid), created on first sight and never erased,
  // so a contend→acquire→release cycle reuses it and allocates nothing.
  struct PairState {
    bool contending = false;
    bool holding = false;
    uint64_t startTs = 0;
    uint64_t acquireTs = 0;
    std::vector<uint64_t> chain;  // of the pending contend
    // Where a release's hold time goes: the first of this pair's rows
    // with the highest contendedCount (a release carries no chain).
    size_t releaseRow = kNoRow;
  };
  struct PairHash {
    size_t operator()(const std::pair<uint64_t, uint64_t>& key) const noexcept;
  };

  size_t rowFor(uint64_t lockId, uint64_t pid,
                const std::vector<uint64_t>& chain);

  std::unordered_map<std::pair<uint64_t, uint64_t>, PairState, PairHash>
      pairs_;
  // Rows by a hash of (lock, pid, chain); a hit is confirmed by comparing
  // the chain itself, so chains whose hashes collide keep separate rows.
  std::unordered_multimap<uint64_t, size_t> rowIndex_;
  std::vector<LockStats> rows_;
  uint64_t pendingContends_ = 0;
  uint64_t unmatchedContends_ = 0;
};

/// Event-frequency statistics (paper §4.2) as a fold.
class EventRateFold final : public Fold {
 public:
  /// `numProcessors` sizes the per-type per-processor count vectors; 0
  /// grows them on demand (live mode, where the processor count is known
  /// but events name it anyway).
  explicit EventRateFold(uint32_t numProcessors = 0)
      : numProcessors_(numProcessors) {}
  // The lookup cache points into stats_: moving carries it along, a copy
  // would alias the source.
  EventRateFold(EventRateFold&&) = default;
  EventRateFold& operator=(EventRateFold&&) = default;
  EventRateFold(const EventRateFold&) = delete;
  EventRateFold& operator=(const EventRateFold&) = delete;

  const char* name() const noexcept override { return "rates"; }
  void onEvent(const DecodedEvent& event) override;
  std::string summaryJson() const override;

  uint64_t totalEvents() const noexcept { return totalEvents_; }
  uint64_t totalWords() const noexcept { return totalWords_; }
  uint32_t numProcessors() const noexcept { return numProcessors_; }
  const std::map<uint32_t, EventTypeStats>& stats() const noexcept {
    return stats_;
  }
  std::map<uint32_t, EventTypeStats> takeStats() noexcept {
    byType_.clear();
    return std::move(stats_);
  }

 private:
  std::map<uint32_t, EventTypeStats> stats_;
  // Dense lookup into stats_: [major][minor] -> its node, or null.
  std::vector<std::vector<EventTypeStats*>> byType_;
  uint64_t totalEvents_ = 0;
  uint64_t totalWords_ = 0;
  uint32_t numProcessors_ = 0;
};

/// Statistical execution profile (the Figure 6 tool) as a fold.
class ProfileFold final : public Fold {
 public:
  const char* name() const noexcept override { return "profile"; }
  uint64_t majorMask() const noexcept override {
    return TraceMask::bit(Major::Prof);
  }
  void onEvent(const DecodedEvent& event) override;
  std::string summaryJson() const override;

  uint64_t totalSamples() const noexcept { return totalSamples_; }
  const std::map<uint64_t, std::map<uint64_t, uint64_t>>& samples()
      const noexcept {
    return samples_;
  }
  std::map<uint64_t, std::map<uint64_t, uint64_t>> takeSamples() noexcept {
    return std::move(samples_);
  }

 private:
  std::map<uint64_t, std::map<uint64_t, uint64_t>> samples_;  // pid -> func -> n
  uint64_t totalSamples_ = 0;
};

/// Heartbeat-replay completeness verification (DESIGN.md §8) as a fold.
/// Incremental restatement of CompletenessReport::analyze: heartbeat
/// intervals close as their heartbeats stream past, instead of in one
/// index-based pass over a closed per-processor vector. finish() settles
/// the tail (gaps after the last heartbeat, clamp observed to the last
/// heartbeat's window) — after it, gaps()/processors() match the post-hoc
/// analysis field for field.
class CompletenessFold final : public Fold {
 public:
  CompletenessFold() = default;
  // The lookup cache points into procs_: moving carries it along, a copy
  // would alias the source.
  CompletenessFold(CompletenessFold&&) = default;
  CompletenessFold& operator=(CompletenessFold&&) = default;
  CompletenessFold(const CompletenessFold&) = delete;
  CompletenessFold& operator=(const CompletenessFold&) = delete;

  const char* name() const noexcept override { return "completeness"; }
  void onEvent(const DecodedEvent& event) override;
  void finish() override;
  std::string summaryJson() const override;

  bool hasHeartbeats() const noexcept { return hasHeartbeats_; }
  /// Valid after finish(): processors ascending, gaps in per-processor
  /// chronological order, bounded zero-loss gaps already filtered.
  const std::vector<CompletenessGap>& gaps() const noexcept { return gaps_; }
  const std::vector<ProcessorCompleteness>& processors() const noexcept {
    return processors_;
  }
  std::vector<CompletenessGap> takeGaps() noexcept { return std::move(gaps_); }
  std::vector<ProcessorCompleteness> takeProcessors() noexcept {
    return std::move(processors_);
  }

 private:
  struct ProcState {
    uint32_t processor = 0;
    bool sawFirst = false;
    uint64_t firstBufferSeq = 0;
    uint64_t firstTick = 0;
    uint64_t prevBufferSeq = 0;
    uint64_t prevTick = 0;
    uint64_t cum = 0;  // logger events so far (fillers/anchors excluded)
    // Last heartbeat seen (interval anchor).
    bool hasBeat = false;
    uint64_t beatCount = 0;
    uint64_t prevBeatCumBefore = 0;
    uint64_t prevBeatTick = 0;
    uint64_t prevBeatBufferSeq = 0;
    Heartbeat prevHb{};
    // Gaps detected since the last heartbeat (they belong to the interval
    // the *next* heartbeat closes).
    std::vector<CompletenessGap> pending;
    // Interval-closed gaps, chronological.
    std::vector<CompletenessGap> closed;
    uint64_t lostEvents = 0;
    uint64_t unboundedGaps = 0;
    bool tailUnverified = false;
  };

  void closeInterval(ProcState& s, const DecodedEvent& beatEvent,
                     const Heartbeat& hb);

  std::map<uint32_t, ProcState> procs_;
  std::vector<ProcState*> byProcessor_;  // dense lookup into procs_
  std::vector<CompletenessGap> gaps_;
  std::vector<ProcessorCompleteness> processors_;
  bool hasHeartbeats_ = false;
  bool finished_ = false;
};

}  // namespace ktrace::analysis::streaming
