// Bench-owned instrumentation placed between pipeline stages through the
// library's public seams: Sink decorators between Consumer, BatchingSink,
// LiveAnalyzer and FileSink, and a util::FileSystem that times writes.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/sink.hpp"
#include "pipebench/common.hpp"
#include "util/faultfs.hpp"

namespace pipebench {

/// Thread-safe sample list (ns).
class Samples {
 public:
  void add(double ns) {
    std::lock_guard lock(mutex_);
    values_.push_back(ns);
  }
  std::vector<double> take() {
    std::lock_guard lock(mutex_);
    return std::move(values_);
  }

 private:
  std::mutex mutex_;
  std::vector<double> values_;
};

/// util::FileSystem over stdio that times every util::File::write: an
/// IoWrite span per write and its duration as a sample.
class TimingFileSystem final : public ktrace::util::FileSystem {
 public:
  std::unique_ptr<ktrace::util::File> open(const std::string& path,
                                           const char* mode) override;
  uint64_t writes() const noexcept { return writes_.load(); }
  Samples& writeNs() noexcept { return writeNs_; }

 private:
  friend class TimedFile;
  std::atomic<uint64_t> writes_{0};
  Samples writeNs_;
};

/// Between Consumer and BatchingSink: times the hand-off from buffer
/// completion to Sink::onBuffer entry, and the enqueue call itself (the
/// time blocked on backpressure). Stamps each buffer's enqueue time.
class ConsumerTap final : public ktrace::Sink {
 public:
  ConsumerTap(ktrace::Sink& downstream, const SeqTimes& completed,
              SeqTimes& enqueued)
      : downstream_(downstream), completed_(completed), enqueued_(enqueued) {}
  void onBuffer(ktrace::BufferRecord&& record) override;
  ktrace::SinkCounters counters() const override { return downstream_.counters(); }
  bool exhausted() const override { return downstream_.exhausted(); }

  Samples handoffNs;
  Samples enqueueNs;

 private:
  ktrace::Sink& downstream_;
  const SeqTimes& completed_;
  SeqTimes& enqueued_;
};

/// Between BatchingSink and LiveAnalyzer: a buffer's wait in the queue
/// (enqueue to delivery) and an Analyzer span around each delivery.
class AnalyzerTap final : public ktrace::Sink {
 public:
  AnalyzerTap(ktrace::Sink& downstream, const SeqTimes& enqueued)
      : downstream_(downstream), enqueued_(enqueued) {}
  void onBuffer(ktrace::BufferRecord&& record) override;
  void onBufferBatch(std::vector<ktrace::BufferRecord>&& records) override;
  ktrace::SinkCounters counters() const override { return downstream_.counters(); }
  bool exhausted() const override { return downstream_.exhausted(); }

  Samples waitNs;

 private:
  ktrace::Sink& downstream_;
  const SeqTimes& enqueued_;
};

/// Between LiveAnalyzer and FileSink: each buffer is durable when the
/// FileSink call carrying it (and so its util::File::write) returns;
/// records completion-to-durable latency and, when tracing, a FileSink
/// span. Used in untraced runs too: durable_ms is an end-to-end metric.
class FileTap final : public ktrace::Sink {
 public:
  FileTap(ktrace::Sink& downstream, const SeqTimes& completed)
      : downstream_(downstream), completed_(completed) {}
  void onBuffer(ktrace::BufferRecord&& record) override;
  void onBufferBatch(std::vector<ktrace::BufferRecord>&& records) override;
  ktrace::SinkCounters counters() const override { return downstream_.counters(); }
  bool exhausted() const override { return downstream_.exhausted(); }

  /// Buffers passed to the FileSink so far.
  uint64_t records() const noexcept { return records_.load(); }
  Samples durableNs;

 private:
  void noteDurable(uint32_t processor, uint64_t seq, uint64_t at);

  ktrace::Sink& downstream_;
  const SeqTimes& completed_;
  std::atomic<uint64_t> records_{0};
};

}  // namespace pipebench
