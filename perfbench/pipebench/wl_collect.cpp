// collect: the in-process library path, open loop at a fixed rate.
//
// Two producer threads, each bound to its own processor of a Stream-mode
// Facility, replay SDET streams at a seeded Poisson rate in 100 us ticks.
// Consumer (1 shard) -> BatchingSink (blockWhenFull) -> LiveAnalyzer ->
// raw FileSink. The consumer drain, the queue, live decode + fold and the
// raw encode/write do the work; shm and LZ do none.
#include <filesystem>
#include <thread>

#include "analysis/streaming/engine.hpp"
#include "analysis/streaming/live_analyzer.hpp"
#include "core/batching_sink.hpp"
#include "core/ktrace.hpp"
#include "pipebench/taps.hpp"
#include "pipebench/trace.hpp"
#include "pipebench/workloads.hpp"

namespace pipebench {

using namespace ktrace;

namespace {

constexpr uint32_t kProducers = 2;
// Offered load per producer thread (events/s), frozen below half the
// saturation of the busiest pipeline thread (see README.md).
constexpr double kRatePerProducer = 0.6e6;
constexpr size_t kBatchRecords = 32;
// A growing backlog must rise by more than this many buffers between the
// first and last third of the run to count as over capacity: the queue
// legitimately holds up to a batch.
constexpr double kBacklogSlackBuffers = kBatchRecords;

class Collect final : public Workload {
 public:
  explicit Collect(const Options& o) : o_(o), dir_(o.workDir + "/collect") {}

  void run(const SdetInput& input, double seconds, bool traced,
           RunResult& out) override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    FacilityConfig fcfg;
    fcfg.numProcessors = kProducers;
    fcfg.bufferWords = 1u << 12;
    fcfg.buffersPerProcessor = 256;
    fcfg.mode = Mode::Stream;
    Facility facility(fcfg);
    facility.mask().enableAll();

    TraceFileMeta meta;
    meta.numProcessors = kProducers;
    meta.bufferWords = fcfg.bufferWords;
    meta.clockKind = ClockKind::Tsc;
    meta.ticksPerSecond = TscClock::ticksPerSecond();
    TimingFileSystem timingFs;
    FileSink fileSink(dir_, "collect", meta, traced ? &timingFs : nullptr);
    SeqTimes completed(kProducers), enqueued(kProducers);
    FileTap fileTap(fileSink, completed);
    analysis::streaming::StreamEngineConfig engine;
    engine.ticksPerSecond = meta.ticksPerSecond;
    engine.windowTicks =
        analysis::streaming::windowTicksForMs(100, meta.ticksPerSecond);
    analysis::streaming::LiveAnalyzer analyzer(fileTap, kProducers, engine, {});
    AnalyzerTap analyzerTap(analyzer, enqueued);
    // Throughput-oriented batching: durable latency is then set mostly by
    // how fast a batch fills, which a short stall of the host moves far
    // less than it moves a queue of single buffers.
    BatchingConfig bcfg;
    bcfg.blockWhenFull = true;
    bcfg.batchRecords = kBatchRecords;
    bcfg.maxQueuedRecords = 8 * kBatchRecords;
    bcfg.maxLinger = std::chrono::milliseconds{10};
    BatchingSink batching(traced ? static_cast<Sink&>(analyzerTap) : analyzer, bcfg);
    ConsumerTap consumerTap(batching, completed, enqueued);
    ConsumerConfig ccfg;
    ccfg.shards = 1;
    // A producer descheduled between reserve and commit (a virtualised
    // host may steal a processor for milliseconds) must not tear a
    // buffer: wait well past such a stall before writing it out as a
    // mismatch.
    ccfg.commitWait = std::chrono::milliseconds{100};
    Consumer consumer(facility, traced ? static_cast<Sink&>(consumerTap) : batching,
                      ccfg);
    consumer.start();

    const uint64_t warmStart = nowNs() + 20'000'000;  // threads are up by then
    const uint64_t start = warmStart + kWarmupNs;
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<OpenLoopStats> stats(kProducers);
    std::vector<std::thread> producers;
    for (uint32_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        facility.bindCurrentThread(p);
        FacilityLog log{facility};
        TickSchedule schedule(o_.seed * 1'000'003 + p,
                              kRatePerProducer, kTickNs);
        const TraceControl& control = facility.control(p);
        stats[p] = runOpenLoop(
            log, [&] { return control.currentBufferSeq(); }, input.streams[p],
            schedule, warmStart, start, end, completed, p);
        facility.unbindCurrentThread();
      });
    }
    // Backlog: buffers completed but not yet handed to the FileSink.
    BacklogTrack backlog;
    RateWindows windows;
    for (uint64_t t = start; t <= end; t += kWindowNs) {
      sleepUntilNs(t);
      uint64_t completedBuffers = 0, logged = 0;
      for (uint32_t p = 0; p < kProducers; ++p) {
        const TraceControl& c = facility.control(p);
        completedBuffers += c.currentBufferSeq();
        for (uint32_t m = 0; m < static_cast<uint32_t>(Major::MajorCount); ++m) {
          logged += c.eventsLoggedFor(static_cast<Major>(m));
        }
      }
      const uint64_t written = fileTap.records();
      backlog.add(completedBuffers > written
                      ? static_cast<double>(completedBuffers - written)
                      : 0.0);
      windows.sample(nowNs(), logged, selfCpuSeconds());
    }
    for (auto& t : producers) t.join();
    facility.flushAll();
    consumer.stop();
    consumer.drainNow();
    batching.stop();
    analyzer.finish();
    const bool flushed = fileSink.flush();
    const double wall = static_cast<double>(nowNs() - start) / 1e9;

    // Output check: every processor's file decodes to exactly its
    // replayed input, once, in order.
    uint64_t attempted = 0, rejected = 0, events = 0, badEvents = 0;
    std::vector<double> late, logNs;
    for (uint32_t p = 0; p < kProducers; ++p) {
      const OpenLoopStats& s = stats[p];
      attempted += s.attempted;
      rejected += s.rejected;
      late.insert(late.end(), s.lateNs.begin(), s.lateNs.end());
      logNs.insert(logNs.end(), s.logNs.begin(), s.logNs.end());
      const StreamCheck check =
          checkFiles(fileSink.pathFor(p), input.streams[p], s.attempted - s.rejected);
      events += check.events;
      badEvents += check.mismatches + check.undecodable;
      if (check.mismatches + check.undecodable != 0) {
        out.fail("processor " + std::to_string(p) + ": " +
                 std::to_string(check.mismatches) + " mismatched and " +
                 std::to_string(check.undecodable) +
                 " undecodable events in the written file");
      }
    }
    const Consumer::Stats cs = consumer.stats();
    const SinkCounters sc = batching.counters();
    out.attempted += attempted;
    // A refused or dropped event also fails the file check; count it once.
    out.failed += std::max(badEvents, rejected + sc.recordsDropped);
    if (rejected != 0) out.fail("logger rejected " + std::to_string(rejected));
    if (cs.buffersLost != 0 || cs.commitMismatches != 0 || sc.recordsDropped != 0) {
      out.fail("pipeline lost " + std::to_string(cs.buffersLost) +
               " buffers, " + std::to_string(cs.commitMismatches) +
               " commit mismatches, " + std::to_string(sc.recordsDropped) +
               " sink drops");
    }
    if (!flushed) out.fail("FileSink flush failed: " + fileSink.errorMessage());
    if (backlog.growing(kBacklogSlackBuffers)) {
      out.fail("over capacity: backlog grew from " +
               std::to_string(backlog.firstThird()) + " to " +
               std::to_string(backlog.lastThird()) + " buffers");
    }

    out.addDist("durable_ms", "ms", distOf(fileTap.durableNs.take()), 1e-6);
    out.addDist("log_ns", "ns", distOf(logNs));
    out.addDist("gen_late_ms", "ms", distOf(late), 1e-6);
    out.add("events_per_s", "1/s", windows.eventsPerSecond(), windows.windows(), "p50");
    out.add("cpu_ms_per_mevent", "ms", windows.cpuMsPerMevent(), windows.windows(), "p50");
    out.add("disk_bytes_per_event", "B",
            static_cast<double>(fileSink.bytesWritten()) / static_cast<double>(events));
    out.add("backlog_first_third", "buffers", backlog.firstThird());
    out.add("backlog_last_third", "buffers", backlog.lastThird());
    if (!traced) return;

    addControlCounters(facility, out);
    out.addDist("consumer.handoff_us", "us", distOf(consumerTap.handoffNs.take()), 1e-3);
    out.add("consumer.passes_per_buffer", "ratio",
            static_cast<double>(consumer.totalPasses()) /
                static_cast<double>(std::max<uint64_t>(1, cs.buffersConsumed)));
    out.add("consumer.lost", "count", static_cast<double>(cs.buffersLost));
    out.add("consumer.commit_mismatches", "count",
            static_cast<double>(cs.commitMismatches));
    out.addDist("batching_sink.enqueue_us", "us", distOf(consumerTap.enqueueNs.take()), 1e-3);
    out.addDist("batching_sink.wait_us", "us", distOf(analyzerTap.waitNs.take()), 1e-3);
    const uint64_t records = fileTap.records();
    out.add("batching_sink.records_per_batch", "count",
            static_cast<double>(records) /
                static_cast<double>(std::max<uint64_t>(1, batching.batchesFlushed())));
    out.add("batching_sink.backpressure_waits", "count",
            static_cast<double>(batching.backpressureWaits()));

    const SelfTimeTable table = selfTimeTable(Spans::snapshot(), start);
    const LayerTime& la = table[static_cast<size_t>(Layer::Analyzer)];
    const LayerTime& fs = table[static_cast<size_t>(Layer::FileSink)];
    const double wallNs = wall * 1e9;
    out.add("live_analyzer.ns_per_event", "ns",
            static_cast<double>(la.selfNs) / static_cast<double>(windows.events()));
    out.add("live_analyzer.busy_share", "ratio", static_cast<double>(la.selfNs) / wallNs);
    out.add("trace_file.sink_us_per_record", "us",
            static_cast<double>(fs.selfNs) / 1e3 /
                static_cast<double>(std::max<uint64_t>(1, fs.items)));
    out.add("trace_file.busy_share", "ratio", static_cast<double>(fs.selfNs) / wallNs);
    out.add("writer_thread.busy_share", "ratio", static_cast<double>(la.spanNs) / wallNs);
    out.addDist("trace_file.io_write_us", "us", distOf(timingFs.writeNs().take()), 1e-3);
    out.add("trace_file.writes_per_record", "ratio",
            static_cast<double>(timingFs.writes()) /
                static_cast<double>(std::max<uint64_t>(1, records)));
    out.add("trace_file.compression_ratio", "ratio",
            static_cast<double>(fileSink.rawBytes()) /
                static_cast<double>(std::max<uint64_t>(1, fileSink.bytesWritten())));
  }

 private:
  Options o_;
  std::string dir_;
};

}  // namespace

std::unique_ptr<Workload> makeCollect(const Options& options) {
  return std::make_unique<Collect>(options);
}

}  // namespace pipebench
