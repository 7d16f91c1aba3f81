#include "analysis/streaming/live_analyzer.hpp"

#include <algorithm>

#include "analysis/streaming/folds.hpp"

namespace ktrace::analysis::streaming {

LiveAnalyzer::LiveAnalyzer(Sink& downstream, uint32_t numProcessors,
                           StreamEngineConfig config,
                           std::vector<DerivedMonitor> monitors)
    : downstream_(downstream), engine_(config, std::move(monitors)),
      merger_(numProcessors), tsBase_(numProcessors, 0) {
  engine_.addFold(std::make_unique<LockContentionFold>());
  engine_.addFold(std::make_unique<EventRateFold>(numProcessors));
  engine_.addFold(std::make_unique<ProfileFold>());
  engine_.addFold(std::make_unique<CompletenessFold>());
}

void LiveAnalyzer::ingest(const BufferRecord& record) {
  const uint32_t p = record.processor;
  if (p >= tsBase_.size()) tsBase_.resize(p + 1, 0);
  scratch_.clear();
  decodeBuffer(record.words, record.seq, p, tsBase_[p], scratch_,
               decodeOptions_);
  if (scratch_.empty()) return;
  engine_.observe(scratch_);
  // Only the merged-order folds' majors take the merge. The lane still
  // advances to the buffer's last tick, so the merge holds back exactly as
  // long, and buffers as little, as it would with every event queued.
  const uint64_t mergedMask = engine_.mergedMajorMask();
  uint64_t lastTick = 0;
  for (DecodedEvent& e : scratch_) {
    lastTick = std::max(lastTick, e.fullTimestamp);
    if ((mergedMask & TraceMask::bit(e.header.major)) != 0) {
      merger_.push(p, std::move(e));
    }
  }
  merger_.advance(p, p, lastTick);
  while (const DecodedEvent* e = merger_.next()) engine_.onOrdered(*e);
}

void LiveAnalyzer::onBuffer(BufferRecord&& record) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ingest(record);
  }
  downstream_.onBuffer(std::move(record));
}

void LiveAnalyzer::onBufferBatch(std::vector<BufferRecord>&& records) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const BufferRecord& r : records) ingest(r);
  }
  downstream_.onBufferBatch(std::move(records));
}

void LiveAnalyzer::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  finished_ = true;
  merger_.finish();
  while (const DecodedEvent* e = merger_.next()) engine_.onOrdered(*e);
  engine_.finish();
}

std::string LiveAnalyzer::snapshotJson(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.snapshotJson(tenant);
}

uint64_t LiveAnalyzer::eventsObserved() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.eventsObserved();
}

uint64_t LiveAnalyzer::windowsCompleted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.windowsCompleted();
}

size_t LiveAnalyzer::mergeBacklog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return merger_.buffered();
}

}  // namespace ktrace::analysis::streaming
