// Tailing live trace output (DESIGN.md §13).
//
// StreamCursor extends MergeCursor's semantics to files that are still
// growing: the v3 writer rewrites its footer directory + EOF trailer in
// place on every flush, so at any flush boundary a growing file is a
// valid v3 file. poll() re-opens each file, decodes only the records past
// the saved per-file cursor (no re-decoding of what was already seen),
// and feeds them into an OrderedMerger that releases events in exactly
// MergeCursor's (fullTimestamp, processor) order once it is safe to do so.
// Between flushes — appended records but a stale footer — the strict open
// fails and the file is simply skipped until the next poll; nothing is
// ever decoded twice and nothing torn is ever decoded at all.
//
// The per-file cursor (record index + timestamp base) is exposed so a
// restarted reader resumes where it left off instead of re-decoding the
// prefix — the live analogue of the daemon's recovery manifest.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/decode.hpp"

namespace ktrace::analysis::streaming {

/// Resume point for one growing file (or rotation chain of files).
struct FileCursor {
  uint64_t recordsDecoded = 0;  // records already decoded in this segment
  uint64_t tsBase = 0;          // running 64-bit timestamp base at that point
  /// Fingerprint of the file the cursor was taken against (header
  /// metadata + first record), filled in by the first successful poll().
  /// 0 = unknown (a cursor saved by an older reader). resume() with a
  /// non-zero identity is validated on the next poll: a rewritten file no
  /// longer matches and poll() throws instead of silently replaying from
  /// a bogus offset.
  uint64_t identity = 0;
  /// Rotation-chain position: which segment of the configured path's
  /// chain (rotationSegmentPath) the cursor is in. recordsDecoded and
  /// identity are relative to this segment; tsBase carries across the
  /// whole chain (every segment re-anchors it exactly).
  uint32_t segment = 0;
};

/// K-way ordering buffer with a watermark: push events per lane (one lane
/// per processor / per file; per-lane timestamps nondecreasing), pop them
/// in global (fullTimestamp, processor) order — MergeCursor's order.
///
/// Before finish(), an event is released only when every *other* lane
/// that has ever produced data has advanced past it (its last pushed
/// timestamp is beyond the candidate), so a lane that is merely draining
/// slower cannot cause misordering. A lane that produces its very first
/// event late (behind the released watermark) is the one hazard this
/// cannot defend against; the daemon registers every processor's lane up
/// front only once data exists, so live feeds are best-effort ordered
/// until finish(), and exactly ordered for any finish()-terminated run
/// whose lanes all appeared before their data was due.
class OrderedMerger {
 public:
  /// Lane index space is dense [0, lanes); grows on demand.
  explicit OrderedMerger(uint32_t lanes = 0) { lanes_.resize(lanes); }

  void push(uint32_t lane, DecodedEvent&& event);

  /// The lane (fed by `processor`) has produced everything up to `tick`,
  /// including events the caller chose not to push: it counts as seen,
  /// and its holdback moves on exactly as if they had been pushed.
  void advance(uint32_t lane, uint32_t processor, uint64_t tick);

  void finish() noexcept { finished_ = true; }

  /// Next safely-ordered event, or nullptr when none can be released yet
  /// (after finish(): nullptr means fully drained). The pointer is valid
  /// until the next call.
  const DecodedEvent* next();

  size_t buffered() const noexcept { return buffered_; }
  bool drained() const noexcept { return buffered_ == 0; }

 private:
  struct Lane {
    std::deque<DecodedEvent> queue;
    uint64_t lastTick = 0;
    uint32_t processor = 0;
    bool seen = false;
  };
  std::vector<Lane> lanes_;
  DecodedEvent current_;
  size_t buffered_ = 0;
  bool finished_ = false;
};

struct StreamCursorOptions {
  /// Decode knobs (keepFillers/keepAnchors honored; salvage is not — a
  /// growing file is read strictly via its footer, which is what makes
  /// incremental re-open safe. Run post-hoc salvage on closed files).
  DecodeOptions decode{};
  /// Follow FileSink rotation chains: when a configured path's writer
  /// rotates (close-and-open-next, DESIGN.md §15), poll() finishes the
  /// closed segment and hands off to its successor
  /// (rotationSegmentPath(path, segment+1)) in place — same merge lane,
  /// tsBase carried across the boundary — instead of going quiet on the
  /// closed file. The tail never restarts from zero.
  bool followRotations = true;
};

/// Tail a set of growing (or closed) v3 trace files as one merged stream.
/// Usage: poll() whenever the files may have grown, then drain next()
/// until it returns nullptr; finish() when the writer is done, after
/// which next() drains everything remaining. Over closed files,
/// poll()+finish() yields exactly TraceSet::fromFiles + MergeCursor.
class StreamCursor {
 public:
  explicit StreamCursor(std::vector<std::string> paths,
                        StreamCursorOptions options = {});

  /// Restores per-file resume points (parallel to the constructor's
  /// paths). Call before the first poll().
  void resume(const std::vector<FileCursor>& cursors);

  /// Decodes newly flushed records from every file; returns how many
  /// events were ingested. Files that cannot be opened (absent, or
  /// mid-write with a stale footer) are skipped until the next poll.
  ///
  /// Throws std::runtime_error when a resumed cursor does not belong to
  /// the file now at its path: the fingerprint saved in the cursor no
  /// longer matches (rotation / rewrite), or the file holds fewer records
  /// than the cursor claims to have decoded (truncation).
  size_t poll();

  /// Next event in merged order, or nullptr (need more polls / drained).
  const DecodedEvent* next();

  /// The writers are done: performs a final poll and unblocks the merge
  /// so next() drains every buffered event.
  void finish();

  bool done() const noexcept { return finished_ && merger_.drained(); }

  const std::vector<FileCursor>& cursors() const noexcept { return cursors_; }
  const DecodeStats& stats() const noexcept { return stats_; }
  /// From the first readable file's metadata; 0 until one opens.
  double ticksPerSecond() const noexcept { return ticksPerSecond_; }
  bool metadataKnown() const noexcept { return metadataKnown_; }

 private:
  bool segmentExists(const std::string& path) const;

  std::vector<std::string> paths_;
  std::vector<FileCursor> cursors_;
  StreamCursorOptions options_;
  OrderedMerger merger_;
  DecodeStats stats_{};
  std::vector<DecodedEvent> scratch_;
  double ticksPerSecond_ = 0.0;
  bool metadataKnown_ = false;
  bool finished_ = false;
};

}  // namespace ktrace::analysis::streaming
