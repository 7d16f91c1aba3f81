// replay: the analyst's path (paper Figs. 5-8), no logging.
//
// Set-up writes the SDET trace of four processors twice, raw and
// LZ-compressed. Each timed rep runs in a forked child, so it pays the
// page faults a fresh ktracetool process pays: TraceSet::fromFiles at
// nproc threads, one MergeCursor pass, then LockAnalysis, Profile,
// EventStats and CompletenessReport. Reps alternate raw and LZ, so the
// compressed-vs-raw gap is measured side by side.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <thread>

#include "analysis/completeness.hpp"
#include "analysis/event_stats.hpp"
#include "analysis/lock_analysis.hpp"
#include "analysis/profile.hpp"
#include "analysis/reader.hpp"
#include "analysis/streaming/folds.hpp"
#include "analysis/streaming/stream_cursor.hpp"
#include "analysis/symbols.hpp"
#include "core/ktrace.hpp"
#include "core/registry.hpp"
#include "pipebench/trace.hpp"
#include "pipebench/workloads.hpp"

namespace pipebench {

using namespace ktrace;

namespace {

// Events written per processor: sized so one raw rep takes a few hundred
// milliseconds on a 4-core host.
constexpr uint64_t kEventsPerProcessor = 120'000;
constexpr uint32_t kLzBatchRecords = 16;

enum class Step : uint32_t { Read, Merge, Locks, Profile, Rates, Completeness, Count };
constexpr size_t kSteps = static_cast<size_t>(Step::Count);

/// What one analysis child reports back through its pipe.
struct ChildReport {
  uint64_t ok = 0;
  uint64_t digest = 0;
  uint64_t events = 0;
  uint64_t begin[kSteps] = {};
  uint64_t end[kSteps] = {};
  // Verification children only: the same reports fed by a StreamCursor.
  uint64_t streamDigest = 0;
  uint64_t streamBegin = 0;
  uint64_t streamEnd = 0;

  double stepNs(Step s) const {
    return static_cast<double>(end[static_cast<size_t>(s)] -
                               begin[static_cast<size_t>(s)]);
  }
  double totalNs() const {
    return static_cast<double>(end[kSteps - 1] - begin[0]);
  }
};

/// Appends a digest of the four reports to `f`.
void digestReports(Fnv& f, const analysis::LockAnalysis& locks,
                   const analysis::Profile& profile,
                   const analysis::EventStats& rates,
                   const analysis::CompletenessReport& completeness) {
  const analysis::SymbolTable symbols;
  f.mix(locks.report(symbols, 1e9, 50));
  for (const uint64_t pid : profile.pids()) f.mix(profile.report(pid, symbols, "sdet", 50));
  f.mix(rates.report(Registry::global(), 1e9, 100));
  f.mix(completeness.toJson());
}

/// The timed analysis: file list to all four reports.
ChildReport analyze(const std::vector<std::string>& paths, uint32_t threads) {
  ChildReport r;
  auto mark = [&r](Step s, bool start) {
    (start ? r.begin : r.end)[static_cast<size_t>(s)] = nowNs();
  };
  DecodeOptions options;
  options.threads = threads;
  mark(Step::Read, true);
  const auto trace = analysis::TraceSet::fromFiles(paths, options);
  mark(Step::Read, false);
  mark(Step::Merge, true);
  uint64_t merged = 0;
  Fnv order;
  for (analysis::MergeCursor cursor(trace); const DecodedEvent* e = cursor.next();) {
    ++merged;
    order.mix(e->fullTimestamp ^ (static_cast<uint64_t>(e->processor) << 56));
  }
  mark(Step::Merge, false);
  mark(Step::Locks, true);
  const analysis::LockAnalysis locks(trace);
  mark(Step::Locks, false);
  mark(Step::Profile, true);
  const analysis::Profile profile(trace);
  mark(Step::Profile, false);
  mark(Step::Rates, true);
  const analysis::EventStats rates(trace);
  mark(Step::Rates, false);
  mark(Step::Completeness, true);
  const auto completeness = analysis::CompletenessReport::analyze(trace);
  mark(Step::Completeness, false);
  Fnv f;
  f.mix(order.h);
  digestReports(f, locks, profile, rates, completeness);
  r.digest = f.h;
  r.events = merged;
  r.ok = merged == trace.totalEvents() ? 1 : 0;
  return r;
}

/// The four reports built from folds fed by a StreamCursor over the
/// closed files (the alternative merge), digested like analyze() does.
uint64_t analyzeByStreamCursor(const std::vector<std::string>& paths) {
  namespace s = analysis::streaming;
  s::StreamCursor cursor(paths);
  s::LockContentionFold lockFold;
  s::ProfileFold profileFold;
  s::EventRateFold rateFold(static_cast<uint32_t>(paths.size()));
  s::CompletenessFold completenessFold;
  Fnv order;
  cursor.poll();
  cursor.finish();
  while (const DecodedEvent* e = cursor.next()) {
    order.mix(e->fullTimestamp ^ (static_cast<uint64_t>(e->processor) << 56));
    lockFold.onEvent(*e);
    profileFold.onEvent(*e);
    rateFold.onEvent(*e);
    completenessFold.onEvent(*e);
  }
  lockFold.finish();
  profileFold.finish();
  rateFold.finish();
  completenessFold.finish();
  const analysis::LockAnalysis locks(std::move(lockFold));
  const analysis::Profile profile(std::move(profileFold));
  const analysis::EventStats rates(std::move(rateFold));
  const auto completeness =
      analysis::CompletenessReport::fromFold(std::move(completenessFold), cursor.stats());
  Fnv f;
  f.mix(order.h);
  digestReports(f, locks, profile, rates, completeness);
  return f.h;
}

/// Runs `body` in a forked child and returns what it wrote to the pipe.
template <typename F>
bool inChild(F&& body, ChildReport& out) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ChildReport r;
    try {
      r = body();
    } catch (...) {
      r.ok = 0;
    }
    const ssize_t n = ::write(fds[1], &r, sizeof(r));
    ::_exit(n == static_cast<ssize_t>(sizeof(r)) ? 0 : 1);
  }
  ::close(fds[1]);
  ChildReport r;
  size_t got = 0;
  while (got < sizeof(r)) {
    const ssize_t n = ::read(fds[0], reinterpret_cast<char*>(&r) + got, sizeof(r) - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof(r) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  out = r;
  return true;
}

/// Copies every buffer to a raw FileSink and, in batches, to a
/// compressed one, so both sets hold identical records.
class TwoSetSink final : public Sink {
 public:
  TwoSetSink(FileSink& raw, FileSink& lz) : raw_(raw), lz_(lz) {}
  void onBuffer(BufferRecord&& record) override {
    pending_.push_back(record);
    raw_.onBuffer(std::move(record));
    if (pending_.size() == kLzBatchRecords) flushLz();
  }
  void flushLz() {
    if (!pending_.empty()) lz_.onBufferBatch(std::move(pending_));
    pending_.clear();
  }

 private:
  FileSink& raw_;
  FileSink& lz_;
  std::vector<BufferRecord> pending_;
};

class Replay final : public Workload {
 public:
  explicit Replay(const Options& o) : dir_(o.workDir + "/replay") {}

  void prepare(const SdetInput& input) override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    FacilityConfig fcfg;
    fcfg.numProcessors = kInputProcessors;
    fcfg.bufferWords = 1u << 14;
    fcfg.buffersPerProcessor = 8;
    fcfg.mode = Mode::Stream;
    // A deterministic clock: the files depend only on the seed.
    FakeClock clock(0, 50);
    fcfg.clockKind = ClockKind::Fake;
    fcfg.clockOverride = clock.ref();
    Facility facility(fcfg);
    facility.mask().enableAll();
    TraceFileMeta meta;
    meta.numProcessors = kInputProcessors;
    meta.bufferWords = fcfg.bufferWords;
    meta.clockKind = ClockKind::Fake;
    FileSink raw(dir_, "raw", meta);
    TraceWriterOptions lzOptions;
    lzOptions.compress = true;
    FileSink lz(dir_, "lz", meta, nullptr, lzOptions);
    TwoSetSink both(raw, lz);
    Consumer consumer(facility, both, {});
    // Round-robin chunks across processors, so the merge interleaves.
    constexpr uint64_t kChunk = 256;
    std::vector<uint64_t> next(kInputProcessors, 0);
    FacilityLog log{facility};
    for (uint64_t done = 0; done < kEventsPerProcessor; done += kChunk) {
      for (uint32_t p = 0; p < kInputProcessors; ++p) {
        facility.bindCurrentThread(p);
        const SdetStream& s = input.streams[p];
        for (uint64_t i = 0; i < kChunk; ++i) dispatchEvent(log, s, s.at(next[p]++));
      }
      consumer.drainNow();
    }
    facility.unbindCurrentThread();
    facility.flushAll();
    consumer.drainNow();
    both.flushLz();
    if (consumer.stats().buffersLost != 0 || !raw.flush() || !lz.flush()) {
      throw std::runtime_error("replay set-up could not write its trace sets");
    }
    rawPaths_.clear();
    lzPaths_.clear();
    rawBytes_ = lzBytes_ = 0;
    for (uint32_t p = 0; p < kInputProcessors; ++p) {
      rawPaths_.push_back(raw.pathFor(p));
      lzPaths_.push_back(lz.pathFor(p));
      rawBytes_ += std::filesystem::file_size(rawPaths_.back());
      lzBytes_ += std::filesystem::file_size(lzPaths_.back());
    }
  }

  void run(const SdetInput&, double seconds, bool traced, RunResult& out) override {
    const uint32_t nproc = std::max(1u, std::thread::hardware_concurrency());
    double childCpu0 = 0;
    uint64_t end = 0;
    std::vector<double> rawNs, lzNs, pairRates;
    std::vector<ChildReport> rawReps, lzReps;
    uint64_t events = 0;
    uint64_t expectedDigest = 0, expectedEvents = 0;
    auto check = [&](const ChildReport& r, const char* what) {
      ++out.attempted;
      if (expectedEvents == 0) {
        expectedDigest = r.digest;
        expectedEvents = r.events;
      }
      if (!r.ok || r.digest != expectedDigest || r.events != expectedEvents) {
        ++out.failed;
        out.fail(std::string(what) + " reports differ from the first rep");
      }
    };
    // Whole pairs only: a raw rep and an LZ rep back to back. The first
    // pair is a warm-up and is not recorded.
    for (bool warm = true; nowNs() < end || rawNs.empty(); warm = false) {
      ChildReport r, z;
      if (!inChild([&] { return analyze(rawPaths_, nproc); }, r) ||
          !inChild([&] { return analyze(lzPaths_, nproc); }, z)) {
        out.fail("analysis child failed");
        ++out.attempted;
        ++out.failed;
        break;
      }
      check(r, "raw");
      check(z, "LZ");
      if (warm) {
        childCpu0 = childrenCpuSeconds();
        end = nowNs() + static_cast<uint64_t>(seconds * 1e9);
        continue;
      }
      events += r.events + z.events;
      rawNs.push_back(r.totalNs());
      lzNs.push_back(z.totalNs());
      pairRates.push_back(static_cast<double>(r.events + z.events) /
                          ((r.totalNs() + z.totalNs()) / 1e9));
      rawReps.push_back(r);
      lzReps.push_back(z);
    }
    const double cpu = childrenCpuSeconds() - childCpu0;

    // Output checks outside the timed phase: 1 decode thread and the
    // StreamCursor order must give the same four reports.
    ChildReport raw1, lz1;
    const bool verified =
        inChild([&] {
          ChildReport r = analyze(rawPaths_, 1);
          r.streamBegin = nowNs();
          r.streamDigest = analyzeByStreamCursor(rawPaths_);
          r.streamEnd = nowNs();
          return r;
        }, raw1) &&
        inChild([&] { return analyze(lzPaths_, 1); }, lz1);
    out.attempted += 3;
    if (!verified) {
      out.failed += 3;
      out.fail("verification child failed");
    } else {
      if (raw1.digest != expectedDigest) {
        ++out.failed;
        out.fail("1-thread raw decode gives different reports than nproc threads");
      }
      if (lz1.digest != expectedDigest) {
        ++out.failed;
        out.fail("1-thread LZ decode gives different reports");
      }
      if (raw1.streamDigest != expectedDigest) {
        ++out.failed;
        out.fail("StreamCursor order gives different reports than MergeCursor");
      }
    }

    const Dist a = distOf(rawNs), az = distOf(lzNs);
    out.add("analyze_s", "s", a.p50 / 1e9, a.n, "p50");
    out.add("analyze_lz_s", "s", az.p50 / 1e9, az.n, "p50");
    // Decode rate of a raw + LZ pair of reps, median over the pairs.
    out.add("events_per_s", "1/s", distOf(pairRates).p50, pairRates.size(), "p50");
    out.add("cpu_ms_per_mevent", "ms", cpu * 1e3 / (static_cast<double>(events) / 1e6));
    out.add("trace_set_mb", "MB", static_cast<double>(rawBytes_) / 1e6);
    out.add("trace_set_lz_mb", "MB", static_cast<double>(lzBytes_) / 1e6);
    if (!traced || !verified) return;

    // Per-layer: medians of each step over the reps, and spans for them
    // from the children's (system-wide monotonic) timestamps.
    auto median = [](const std::vector<ChildReport>& reps, Step s) {
      std::vector<double> v;
      for (const ChildReport& r : reps) v.push_back(r.stepNs(s));
      return distOf(v).p50;
    };
    const double n = static_cast<double>(expectedEvents);
    out.add("reader.raw_mb_per_s", "MB/s",
            static_cast<double>(rawBytes_) / 1e6 / (median(rawReps, Step::Read) / 1e9));
    out.add("reader.lz_mb_per_s", "MB/s",
            static_cast<double>(lzBytes_) / 1e6 / (median(lzReps, Step::Read) / 1e9));
    out.add("reader.raw_mb_per_s_1t", "MB/s",
            static_cast<double>(rawBytes_) / 1e6 / (raw1.stepNs(Step::Read) / 1e9));
    out.add("reader.lz_mb_per_s_1t", "MB/s",
            static_cast<double>(lzBytes_) / 1e6 / (lz1.stepNs(Step::Read) / 1e9));
    out.add("reader.merge_ns_per_event", "ns", median(rawReps, Step::Merge) / n);
    out.add("stream_cursor.ns_per_event", "ns",
            static_cast<double>(raw1.streamEnd - raw1.streamBegin) / n);
    out.add("folds.locks_ns_per_event", "ns", median(rawReps, Step::Locks) / n);
    out.add("folds.profile_ns_per_event", "ns", median(rawReps, Step::Profile) / n);
    out.add("folds.rates_ns_per_event", "ns", median(rawReps, Step::Rates) / n);
    out.add("folds.completeness_ns_per_event", "ns",
            median(rawReps, Step::Completeness) / n);
    const Layer layers[kSteps] = {Layer::Reader,      Layer::Merge,     Layer::FoldLocks,
                                  Layer::FoldProfile, Layer::FoldRates, Layer::FoldCompleteness};
    for (const auto* reps : {&rawReps, &lzReps}) {
      for (size_t k = 0; k < reps->size(); ++k) {
        for (size_t s = 0; s < kSteps; ++s) {
          Spans::record(layers[s], (*reps)[k].begin[s], (*reps)[k].end[s],
                        reps == &rawReps ? 0 : 1, k);
        }
      }
    }
    Spans::record(Layer::StreamCursor, raw1.streamBegin, raw1.streamEnd);
  }

 private:
  std::string dir_;
  std::vector<std::string> rawPaths_, lzPaths_;
  uint64_t rawBytes_ = 0, lzBytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeReplay(const Options& options) {
  return std::make_unique<Replay>(options);
}

}  // namespace pipebench
