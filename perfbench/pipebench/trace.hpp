// The traced run's instrumentation: spans recorded from the benchmark's
// own files around the calls into each layer, kept in per-thread memory
// buffers and written out when the run ends.
//
// A span carries the id (processor, seq) of the buffer it worked on; a
// span around a batch carries the id of the batch's first buffer and the
// number of buffers in `count`. A layer's self time is its span minus the
// part of it that the spans nested inside it (on the same thread) cover.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

enum class Layer : uint8_t {
  ProducerBatch,    // 1024 producer log calls
  ConsumerHandoff,  // Consumer -> Sink::onBuffer (the BatchingSink enqueue)
  QueueWait,        // a buffer's wait in the BatchingSink queue
  Analyzer,         // LiveAnalyzer::onBufferBatch (FileSink call nested)
  FileSink,         // FileSink::onBufferBatch (util::File writes nested)
  IoWrite,          // one util::File::write
  Reader,           // TraceSet::fromFiles
  Merge,            // one MergeCursor pass
  StreamCursor,     // StreamCursor poll + finish + drain over closed files
  FoldLocks,        // LockAnalysis
  FoldProfile,      // Profile
  FoldRates,        // EventStats
  FoldCompleteness, // CompletenessReport::analyze
  Count,
};
const char* layerName(Layer layer);

struct Span {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t seq = 0;
  uint32_t processor = 0;
  uint32_t count = 1;
  Layer layer = Layer::ProducerBatch;
};

/// Process-wide span recorder. Off by default; record() is a no-op then.
class Spans {
 public:
  static void enable(bool on) noexcept;
  static bool enabled() noexcept;
  static void record(Layer layer, uint64_t start, uint64_t end,
                     uint32_t processor = 0, uint64_t seq = 0,
                     uint32_t count = 1);
  /// Every thread's spans (one vector per recording thread), in record
  /// order. Call with the recording threads quiesced.
  static std::vector<std::vector<Span>> snapshot();
  /// Drops every recorded span.
  static void clear();
  /// One line per span: thread, layer, start, end, processor, seq, count.
  static bool writeTsv(const std::string& path);
};

/// Length of the union of `intervals` clipped to [start, end).
uint64_t coveredNs(uint64_t start, uint64_t end,
                   std::vector<std::pair<uint64_t, uint64_t>> intervals);

/// Per-layer totals: span time, self time (span minus nested spans), and
/// spans counted.
struct LayerTime {
  uint64_t spanNs = 0;
  uint64_t selfNs = 0;
  uint64_t spans = 0;
  uint64_t items = 0;  // sum of span counts (buffers covered)
};
using SelfTimeTable = std::array<LayerTime, static_cast<size_t>(Layer::Count)>;

/// Builds the self-time table. Spans nest per thread: a span's children
/// are the spans of the same thread that start inside it and end no later.
/// QueueWait spans are waits, not work on the thread that records them:
/// they neither nest nor have children (self time = span). Spans that
/// start before `fromNs` (a warm-up) are left out.
SelfTimeTable selfTimeTable(const std::vector<std::vector<Span>>& perThread,
                            uint64_t fromNs = 0);

}  // namespace pipebench
