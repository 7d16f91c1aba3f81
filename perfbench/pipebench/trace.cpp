#include "pipebench/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace pipebench {

namespace {

// Bound on spans kept per thread, so a long traced run cannot exhaust
// memory; later spans are counted but not kept.
constexpr size_t kMaxSpansPerThread = 1u << 20;

struct ThreadSpans {
  std::vector<Span> spans;
  uint64_t droppedSpans = 0;
};

std::atomic<bool> gEnabled{false};
std::mutex gMutex;  // guards gThreads
std::vector<std::unique_ptr<ThreadSpans>> gThreads;
thread_local ThreadSpans* tlSpans = nullptr;

ThreadSpans& mine() {
  if (tlSpans == nullptr) {
    auto buffer = std::make_unique<ThreadSpans>();
    buffer->spans.reserve(4096);
    std::lock_guard lock(gMutex);
    gThreads.push_back(std::move(buffer));
    tlSpans = gThreads.back().get();
  }
  return *tlSpans;
}

}  // namespace

const char* layerName(Layer layer) {
  switch (layer) {
    case Layer::ProducerBatch: return "producer_batch";
    case Layer::ConsumerHandoff: return "consumer_handoff";
    case Layer::QueueWait: return "queue_wait";
    case Layer::Analyzer: return "live_analyzer";
    case Layer::FileSink: return "file_sink";
    case Layer::IoWrite: return "io_write";
    case Layer::Reader: return "reader";
    case Layer::Merge: return "merge";
    case Layer::StreamCursor: return "stream_cursor";
    case Layer::FoldLocks: return "fold_locks";
    case Layer::FoldProfile: return "fold_profile";
    case Layer::FoldRates: return "fold_rates";
    case Layer::FoldCompleteness: return "fold_completeness";
    case Layer::Count: break;
  }
  return "?";
}

void Spans::enable(bool on) noexcept { gEnabled.store(on, std::memory_order_relaxed); }

bool Spans::enabled() noexcept { return gEnabled.load(std::memory_order_relaxed); }

void Spans::record(Layer layer, uint64_t start, uint64_t end,
                   uint32_t processor, uint64_t seq, uint32_t count) {
  if (!enabled()) return;
  ThreadSpans& t = mine();
  if (t.spans.size() >= kMaxSpansPerThread) {
    ++t.droppedSpans;
    return;
  }
  t.spans.push_back({start, end, seq, processor, count, layer});
}

std::vector<std::vector<Span>> Spans::snapshot() {
  std::lock_guard lock(gMutex);
  std::vector<std::vector<Span>> out;
  for (const auto& t : gThreads) out.push_back(t->spans);
  return out;
}

void Spans::clear() {
  std::lock_guard lock(gMutex);
  for (const auto& t : gThreads) {
    t->spans.clear();
    t->droppedSpans = 0;
  }
}

bool Spans::writeTsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tlayer\tstart_ns\tend_ns\tprocessor\tseq\tcount\n");
  const auto threads = snapshot();
  for (size_t t = 0; t < threads.size(); ++t) {
    for (const Span& s : threads[t]) {
      std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%u\t%llu\t%u\n", t,
                   layerName(s.layer), static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end), s.processor,
                   static_cast<unsigned long long>(s.seq), s.count);
    }
  }
  return std::fclose(f) == 0;
}

uint64_t coveredNs(uint64_t start, uint64_t end,
                   std::vector<std::pair<uint64_t, uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t reach = start;  // everything before `reach` is already counted
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, end);
    if (b <= a) continue;
    covered += b - a;
    reach = b;
  }
  return covered;
}

SelfTimeTable selfTimeTable(const std::vector<std::vector<Span>>& perThread,
                            uint64_t fromNs) {
  SelfTimeTable table{};
  for (std::vector<Span> spans : perThread) {
    std::erase_if(spans, [fromNs](const Span& s) { return s.start < fromNs; });
    for (const Span& s : spans) {
      if (s.layer != Layer::QueueWait) continue;
      LayerTime& row = table[static_cast<size_t>(Layer::QueueWait)];
      row.spanNs += s.end - s.start;
      row.selfNs += s.end - s.start;
      ++row.spans;
      row.items += s.count;
    }
    std::erase_if(spans, [](const Span& s) { return s.layer == Layer::QueueWait; });
    // Parents before their children: earlier start first, and for equal
    // starts the longer span first.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
    std::vector<size_t> open;  // indexes of spans enclosing the current one
    for (size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()].end <= spans[i].start) {
        open.pop_back();
      }
      if (!open.empty() && spans[i].end <= spans[open.back()].end) {
        children[open.back()].emplace_back(spans[i].start, spans[i].end);
      } else {
        open.clear();  // not nested in anything still open
      }
      open.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const uint64_t dur = s.end > s.start ? s.end - s.start : 0;
      LayerTime& row = table[static_cast<size_t>(s.layer)];
      row.spanNs += dur;
      row.selfNs += dur - coveredNs(s.start, s.end, std::move(children[i]));
      ++row.spans;
      row.items += s.count;
    }
  }
  return table;
}

}  // namespace pipebench
