// Streaming analysis folds (DESIGN.md §13).
//
// The paper's claim is *unified* monitoring: one event stream serving both
// post-hoc analysis and live observation. A Fold is the seam that makes
// that literal — an incremental analysis consuming events one at a time,
// never caring whether the stream ends. The post-hoc tools become "run the
// fold to EOF over a closed trace"; the live path runs the very same fold
// over a tenant's pipeline while it is still logging. Results are
// identical by construction.
//
// Each fold declares its ordering contract: whether it needs the merged
// (timestamp, processor) order, and the major classes it consumes — a
// 64-bit mask in the trace mask's own bit layout. The engine routes by
// it, so only the events a merged-order fold consumes pay for the merge.
#pragma once

#include <cstdint>
#include <string>

#include "core/decode.hpp"
#include "core/mask.hpp"

namespace ktrace::analysis::streaming {

class Fold {
 public:
  virtual ~Fold() = default;

  /// Stable identifier ("locks", "rates", "profile", "completeness").
  virtual const char* name() const noexcept = 0;

  /// True when the fold needs events in merged (fullTimestamp, processor)
  /// order — the exact order MergeCursor yields for a closed trace. False:
  /// each processor's events arrive in that processor's own order, and
  /// processors interleave arbitrarily.
  virtual bool needsMergedOrder() const noexcept { return false; }

  /// Majors the fold consumes (TraceMask::bit layout); onEvent sees no
  /// other event.
  virtual uint64_t majorMask() const noexcept { return ~0ull; }

  /// One event, in the order needsMergedOrder() asks for.
  virtual void onEvent(const DecodedEvent& event) = 0;

  /// End of stream: the replay reached EOF or the live session drained.
  /// Folds finalize end-of-stream accounting here (e.g. unmatched
  /// contention). Called at most once.
  virtual void finish() {}

  /// One-line JSON object (no newline) summarizing current state; embedded
  /// in the "top" snapshot line. Values may be arrival-order dependent
  /// before finish(), so snapshots never diff these across live/replay.
  virtual std::string summaryJson() const = 0;
};

}  // namespace ktrace::analysis::streaming
