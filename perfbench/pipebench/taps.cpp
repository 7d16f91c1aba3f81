#include "pipebench/taps.hpp"

#include "pipebench/trace.hpp"

namespace pipebench {

using ktrace::BufferRecord;

/// A stdio file whose writes are timed.
class TimedFile final : public ktrace::util::File {
 public:
  TimedFile(std::unique_ptr<ktrace::util::File> inner, TimingFileSystem& fs)
      : inner_(std::move(inner)), fs_(fs) {}
  size_t read(void* buf, size_t bytes) override { return inner_->read(buf, bytes); }
  size_t write(const void* buf, size_t bytes) override {
    const uint64_t t0 = nowNs();
    const size_t n = inner_->write(buf, bytes);
    const uint64_t t1 = nowNs();
    fs_.writes_.fetch_add(1, std::memory_order_relaxed);
    fs_.writeNs_.add(static_cast<double>(t1 - t0));
    Spans::record(Layer::IoWrite, t0, t1);
    return n;
  }
  bool seek(int64_t offset, int whence) override { return inner_->seek(offset, whence); }
  int64_t tell() override { return inner_->tell(); }
  int64_t size() override { return inner_->size(); }
  bool flush() override { return inner_->flush(); }
  bool truncate(int64_t size) override { return inner_->truncate(size); }
  int error() const noexcept override { return inner_->error(); }

 private:
  std::unique_ptr<ktrace::util::File> inner_;
  TimingFileSystem& fs_;
};

std::unique_ptr<ktrace::util::File> TimingFileSystem::open(const std::string& path,
                                                           const char* mode) {
  auto inner = ktrace::util::FileSystem::stdio().open(path, mode);
  if (inner == nullptr) return nullptr;
  return std::make_unique<TimedFile>(std::move(inner), *this);
}

void ConsumerTap::onBuffer(BufferRecord&& record) {
  const uint32_t p = record.processor;
  const uint64_t seq = record.seq;
  const uint64_t t0 = nowNs();
  if (const uint64_t done = completed_.get(p, seq); done != 0 && t0 > done) {
    handoffNs.add(static_cast<double>(t0 - done));
    enqueued_.set(p, seq, t0);
  }
  downstream_.onBuffer(std::move(record));
  const uint64_t t1 = nowNs();
  enqueueNs.add(static_cast<double>(t1 - t0));
  Spans::record(Layer::ConsumerHandoff, t0, t1, p, seq);
}

void AnalyzerTap::onBuffer(BufferRecord&& record) {
  std::vector<BufferRecord> one;
  one.push_back(std::move(record));
  onBufferBatch(std::move(one));
}

void AnalyzerTap::onBufferBatch(std::vector<BufferRecord>&& records) {
  if (records.empty()) return;
  const uint64_t t0 = nowNs();
  for (const BufferRecord& r : records) {
    const uint64_t queued = enqueued_.get(r.processor, r.seq);
    if (queued == 0 || queued > t0) continue;
    waitNs.add(static_cast<double>(t0 - queued));
    Spans::record(Layer::QueueWait, queued, t0, r.processor, r.seq);
  }
  const uint32_t p = records.front().processor;
  const uint64_t seq = records.front().seq;
  const auto n = static_cast<uint32_t>(records.size());
  downstream_.onBufferBatch(std::move(records));
  Spans::record(Layer::Analyzer, t0, nowNs(), p, seq, n);
}

void FileTap::noteDurable(uint32_t processor, uint64_t seq, uint64_t at) {
  if (const uint64_t done = completed_.get(processor, seq); done != 0 && at > done) {
    durableNs.add(static_cast<double>(at - done));
  }
}

void FileTap::onBuffer(BufferRecord&& record) {
  const uint32_t p = record.processor;
  const uint64_t seq = record.seq;
  const uint64_t t0 = nowNs();
  downstream_.onBuffer(std::move(record));
  const uint64_t t1 = nowNs();
  records_.fetch_add(1, std::memory_order_relaxed);
  noteDurable(p, seq, t1);
  Spans::record(Layer::FileSink, t0, t1, p, seq);
}

void FileTap::onBufferBatch(std::vector<BufferRecord>&& records) {
  if (records.empty()) return;
  std::vector<std::pair<uint32_t, uint64_t>> ids;
  ids.reserve(records.size());
  for (const BufferRecord& r : records) ids.emplace_back(r.processor, r.seq);
  const uint64_t t0 = nowNs();
  downstream_.onBufferBatch(std::move(records));
  const uint64_t t1 = nowNs();
  records_.fetch_add(ids.size(), std::memory_order_relaxed);
  for (const auto& [p, seq] : ids) noteDurable(p, seq, t1);
  Spans::record(Layer::FileSink, t0, t1, ids.front().first, ids.front().second,
                static_cast<uint32_t>(ids.size()));
}

}  // namespace pipebench
