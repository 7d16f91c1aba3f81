#include "analysis/streaming/stream_cursor.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/trace_file.hpp"

namespace ktrace::analysis::streaming {

namespace {

/// Fingerprint of what a file *is* (vs. how far it has grown): the
/// immutable header metadata plus the first record's seq and leading
/// words. Append-only growth keeps it stable; rotation or rewrite in
/// place changes it.
uint64_t fileIdentity(TraceFileReader& reader) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  const TraceFileMeta& meta = reader.meta();
  mix(meta.processorId);
  mix(meta.numProcessors);
  mix(meta.bufferWords);
  mix(static_cast<uint64_t>(meta.clockKind));
  uint64_t tpsBits = 0;
  static_assert(sizeof(meta.ticksPerSecond) == sizeof(tpsBits));
  std::memcpy(&tpsBits, &meta.ticksPerSecond, sizeof(tpsBits));
  mix(tpsBits);
  mix(meta.startWallNs);
  mix(meta.startTicks);
  BufferView first;
  if (reader.bufferCount() > 0 && reader.readBufferView(0, first)) {
    mix(first.seq);
    const size_t n = std::min<size_t>(first.words.size(), 8);
    for (size_t i = 0; i < n; ++i) mix(first.words[i]);
  }
  // Reserve 0 as "unknown" so legacy cursors stay accepted.
  return h != 0 ? h : 1;
}

}  // namespace

// --- OrderedMerger -----------------------------------------------------

void OrderedMerger::advance(uint32_t lane, uint32_t processor, uint64_t tick) {
  if (lane >= lanes_.size()) lanes_.resize(lane + 1);
  Lane& l = lanes_[lane];
  l.seen = true;
  l.processor = processor;
  if (tick > l.lastTick) l.lastTick = tick;
}

void OrderedMerger::push(uint32_t lane, DecodedEvent&& event) {
  advance(lane, event.processor, event.fullTimestamp);
  lanes_[lane].queue.push_back(std::move(event));
  ++buffered_;
}

const DecodedEvent* OrderedMerger::next() {
  // Candidate: the smallest (fullTimestamp, processor) among lane fronts —
  // exactly MergeCursor's heap order.
  Lane* best = nullptr;
  for (Lane& l : lanes_) {
    if (l.queue.empty()) continue;
    if (best == nullptr) {
      best = &l;
      continue;
    }
    const DecodedEvent& a = l.queue.front();
    const DecodedEvent& b = best->queue.front();
    if (a.fullTimestamp < b.fullTimestamp ||
        (a.fullTimestamp == b.fullTimestamp && a.processor < b.processor)) {
      best = &l;
    }
  }
  if (best == nullptr) return nullptr;

  if (!finished_) {
    // Release only when no other seen lane could still produce an event
    // that sorts before the candidate. A lane with queued data is covered
    // by candidate selection (per-lane timestamps are nondecreasing); an
    // empty lane is safe only once its last pushed timestamp is past the
    // candidate (or tied with a higher processor id).
    const DecodedEvent& c = best->queue.front();
    for (const Lane& l : lanes_) {
      if (&l == best || !l.seen || !l.queue.empty()) continue;
      if (l.lastTick > c.fullTimestamp) continue;
      if (l.lastTick == c.fullTimestamp && l.processor > c.processor) continue;
      return nullptr;  // l might still produce an earlier event
    }
  }

  current_ = std::move(best->queue.front());
  best->queue.pop_front();
  --buffered_;
  return &current_;
}

// --- StreamCursor ------------------------------------------------------

StreamCursor::StreamCursor(std::vector<std::string> paths,
                           StreamCursorOptions options)
    : paths_(std::move(paths)), cursors_(paths_.size()), options_(options),
      merger_(static_cast<uint32_t>(paths_.size())) {
  if (options_.decode.salvage) {
    throw std::invalid_argument(
        "StreamCursor: salvage decoding is not supported while tailing; "
        "run post-hoc salvage on the closed files");
  }
}

void StreamCursor::resume(const std::vector<FileCursor>& cursors) {
  if (cursors.size() != cursors_.size()) {
    throw std::invalid_argument(
        "StreamCursor::resume: cursor count does not match file count");
  }
  cursors_ = cursors;
}

bool StreamCursor::segmentExists(const std::string& path) const {
  if (options_.decode.fs != nullptr) {
    return options_.decode.fs->open(path, "rb") != nullptr;
  }
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

size_t StreamCursor::poll() {
  size_t ingested = 0;
  TraceReaderOptions readerOptions;
  readerOptions.fs = options_.decode.fs;
  readerOptions.useMmap = options_.decode.useMmap;
  for (size_t i = 0; i < paths_.size(); ++i) {
    FileCursor& cursor = cursors_[i];
    // Walk the path's rotation chain: drain the current segment, and when
    // its successor exists (the writer closed this segment — rotation
    // creates the next file only after the previous one's final flush),
    // hand off in place. Same lane, tsBase carried over; only the
    // per-segment record count and fingerprint reset.
    for (;;) {
      const std::string segmentPath =
          rotationSegmentPath(paths_[i], cursor.segment);
      // A growing file is strictly readable only at flush boundaries: the
      // footer + trailer must sit exactly at EOF. Mid-append the open
      // throws and the file waits for the next poll.
      std::unique_ptr<TraceFileReader> reader;
      try {
        reader = std::make_unique<TraceFileReader>(segmentPath, readerOptions);
      } catch (const std::exception&) {
        break;
      }
      if (!metadataKnown_) {
        ticksPerSecond_ = reader->meta().ticksPerSecond;
        metadataKnown_ = true;
      }
      const uint32_t processor = reader->meta().processorId;
      const uint64_t count = reader->bufferCount();
      // Validate the cursor against the file actually at this path before
      // trusting its offset (a resumed cursor may predate a rewrite). The
      // fingerprint includes the first record, so it is only final once the
      // file has one; an empty file stays at identity 0 (unknown).
      const uint64_t identity = count > 0 ? fileIdentity(*reader) : 0;
      if (cursor.identity != 0 && identity != 0 && cursor.identity != identity) {
        throw std::runtime_error(
            "StreamCursor: resumed cursor does not match the file at '" +
            segmentPath +
            "' (rewritten since the cursor was saved); restart from a fresh "
            "cursor");
      }
      if (cursor.recordsDecoded > count) {
        throw std::runtime_error(
            "StreamCursor: resumed cursor is past the end of '" + segmentPath +
            "' (" + std::to_string(cursor.recordsDecoded) +
            " record(s) decoded, file now holds " + std::to_string(count) +
            "); the file was truncated or replaced");
      }
      if (identity != 0) cursor.identity = identity;
      for (uint64_t k = cursor.recordsDecoded; k < count; ++k) {
        BufferView view;
        if (!reader->readBufferView(k, view)) break;
        scratch_.clear();
        stats_.merge(decodeBuffer(view.words, view.seq, processor,
                                  cursor.tsBase, scratch_, options_.decode));
        for (DecodedEvent& e : scratch_) {
          merger_.push(static_cast<uint32_t>(i), std::move(e));
          ++ingested;
        }
        cursor.recordsDecoded = k + 1;
      }
      if (!options_.followRotations || cursor.recordsDecoded < count ||
          !segmentExists(rotationSegmentPath(paths_[i], cursor.segment + 1))) {
        break;
      }
      ++cursor.segment;
      cursor.recordsDecoded = 0;
      cursor.identity = 0;
    }
  }
  return ingested;
}

const DecodedEvent* StreamCursor::next() { return merger_.next(); }

void StreamCursor::finish() {
  if (finished_) return;
  poll();
  finished_ = true;
  merger_.finish();
}

}  // namespace ktrace::analysis::streaming
