// ingest: the production deployment, open loop at a fixed rate.
//
// Two tenants each own one .kses ShmSession with one producer thread
// logging through ShmTraceControl. An in-process TraceDaemon (one
// scheduler thread, LZ-compressed output, live analysis windows) drains
// them; a third generator thread tails the growing output with a
// StreamCursor per tenant, standing in for `ktracetool top`. Exercises
// shm reserve/commit, the watchdog drain, daemon scheduling and LZ encode;
// the tail's reads share the trace_file layer with the daemon's writes.
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include "analysis/streaming/stream_cursor.hpp"
#include "core/ktrace.hpp"
#include "core/shm_session.hpp"
#include "daemon/daemon.hpp"
#include "pipebench/taps.hpp"
#include "pipebench/trace.hpp"
#include "pipebench/workloads.hpp"

namespace pipebench {

using namespace ktrace;

namespace {

constexpr uint32_t kTenants = 2;
// Offered load per tenant producer (events/s), frozen at about half the
// saturation of the busiest pipeline thread (see README.md).
constexpr double kRatePerTenant = 1.0e6;
// The daemon's writers rotate every this many records: a closed segment
// is what a tail can read, so this bounds how long a buffer stays
// invisible.
constexpr uint64_t kRotateRecords = 16;
// A growing backlog must rise by more than this many buffers between the
// first and last third of the run to count as over capacity: one batch of
// the daemon's BatchingSink.
constexpr double kBacklogSlackBuffers = 8;
constexpr uint64_t kTailPollNs = 2'000'000;

class Ingest final : public Workload {
 public:
  explicit Ingest(const Options& o)
      : o_(o),
        dir_(o.workDir + "/ingest"),
        sessionDir_(dir_ + "/sessions"),
        outDir_(dir_ + "/out") {}

  /// Fresh session segments (and an empty output directory).
  void prepare(const SdetInput&) override {
    sessions_.clear();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(sessionDir_);
    ShmSession::Config cfg;
    cfg.numProcessors = 1;
    cfg.bufferWords = 1u << 14;
    cfg.numBuffers = 64;
    cfg.maxProducers = 1;
    cfg.ticksPerSecond = TscClock::ticksPerSecond();
    for (uint32_t t = 0; t < kTenants; ++t) {
      sessions_.push_back(ShmSession::create(segmentPath(t), cfg, TscClock::ref()));
    }
  }

  void run(const SdetInput& input, double seconds, bool traced,
           RunResult& out) override {
    if (sessions_.size() != kTenants) prepare(input);
    TimingFileSystem timingFs;
    daemon::DaemonConfig dcfg;
    dcfg.sessionDir = sessionDir_;
    dcfg.outputDir = outDir_;
    dcfg.scanInterval = std::chrono::milliseconds{20};
    dcfg.schedulerThreads = 1;
    dcfg.compressOutput = true;
    dcfg.analysisWindow = std::chrono::milliseconds{100};
    dcfg.rotateRecords = kRotateRecords;
    dcfg.watchdog.expiryTimeout = std::chrono::milliseconds{500};
    if (traced) dcfg.traceFs = &timingFs;
    daemon::TraceDaemon daemon(dcfg);
    daemon.start();
    if (!waitAdmitted(daemon)) {
      daemon.stop();
      out.fail("daemon did not admit both tenants");
      sessions_.clear();
      return;
    }

    std::vector<std::string> outputs;
    for (uint32_t t = 0; t < kTenants; ++t) {
      outputs.push_back(outDir_ + "/t" + std::to_string(t) + ".g" +
                        std::to_string(daemon.generation()) + ".cpu0.ktrc");
    }
    SeqTimes completed(kTenants), visible(kTenants);
    std::set<int> generatorTids{currentTid()};
    std::mutex tidMutex;
    auto noteTid = [&] {
      std::lock_guard lock(tidMutex);
      generatorTids.insert(currentTid());
    };

    // The tail: one StreamCursor per tenant over its rotating output.
    std::atomic<bool> tailStop{false};
    std::vector<uint64_t> tailEvents(kTenants, 0);
    Samples visibleNs;
    std::vector<std::unique_ptr<analysis::streaming::StreamCursor>> cursors;
    for (uint32_t t = 0; t < kTenants; ++t) {
      cursors.push_back(std::make_unique<analysis::streaming::StreamCursor>(
          std::vector<std::string>{outputs[t]}));
    }
    auto drainTail = [&](uint32_t t, bool live) {
      while (const DecodedEvent* e = cursors[t]->next()) {
        ++tailEvents[t];
        if (!live) continue;
        const uint64_t now = nowNs();
        if (visible.setOnce(t, e->bufferSeq, now)) {
          if (const uint64_t done = completed.get(t, e->bufferSeq); done != 0) {
            visibleNs.add(static_cast<double>(now - done));
          }
        }
      }
    };
    std::thread tail([&] {
      noteTid();
      while (!tailStop.load()) {
        for (uint32_t t = 0; t < kTenants; ++t) {
          cursors[t]->poll();
          drainTail(t, true);
        }
        sleepUntilNs(nowNs() + kTailPollNs);
      }
    });

    const uint64_t warmStart = nowNs() + 20'000'000;  // threads are up by then
    const uint64_t start = warmStart + kWarmupNs;
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<OpenLoopStats> stats(kTenants);
    std::vector<uint64_t> finalSeq(kTenants, 0), logged(kTenants, 0);
    std::vector<std::thread> producers;
    std::atomic<uint32_t> leaseFailures{0};
    for (uint32_t t = 0; t < kTenants; ++t) {
      producers.emplace_back([&, t] {
        noteTid();
        ShmSession& session = sessions_[t];
        const int lease = session.acquireLease(static_cast<uint64_t>(::getpid()), 0, 1);
        if (lease < 0) {
          leaseFailures.fetch_add(1);
          return;
        }
        ShmTraceControl control =
            session.producerControl(0, static_cast<uint32_t>(lease));
        ShmLog log{control};
        TickSchedule schedule(o_.seed * 1'000'003 + 17 + t, kRatePerTenant, kTickNs);
        stats[t] = runOpenLoop(
            log, [&] { return control.currentBufferSeq(); }, input.streams[t],
            schedule, warmStart, start, end, completed, t);
        control.flushCurrentBuffer();
        finalSeq[t] = control.currentBufferSeq();
        logged[t] = control.eventsLogged();
        session.releaseLease(static_cast<uint32_t>(lease));
      });
    }

    // Backlog: buffers complete in shm but not yet drained by the daemon.
    BacklogTrack backlog;
    RateWindows windows;
    std::vector<ShmTraceControl> views;
    for (uint32_t t = 0; t < kTenants; ++t) views.push_back(sessions_[t].control(0));
    auto daemonCpuNow = [&] {
      // Every thread that is not a generator (producers, tail, this one).
      double seconds = 0;
      std::lock_guard lock(tidMutex);
      for (const ThreadCpu& tc : threadCpuTimes()) {
        if (generatorTids.count(tc.tid) == 0) seconds += tc.seconds;
      }
      return seconds;
    };
    double daemonCpu0 = 0;
    for (uint64_t t = start; t <= end; t += kWindowNs) {
      sleepUntilNs(t);
      if (t == start) daemonCpu0 = daemonCpuNow();
      uint64_t b = 0, logged = 0;
      for (const ShmTraceControl& v : views) {
        const uint64_t done = v.buffersConsumed() + v.buffersLost();
        b += v.currentBufferSeq() > done ? v.currentBufferSeq() - done : 0;
        logged += v.eventsLogged();
      }
      backlog.add(static_cast<double>(b));
      windows.sample(nowNs(), logged, selfCpuSeconds());
    }
    for (auto& p : producers) p.join();
    // Wait for the daemon to drain everything the producers completed.
    const uint64_t drainDeadline = nowNs() + 10'000'000'000ull;
    bool drained = false;
    while (!drained && nowNs() < drainDeadline) {
      drained = true;
      for (uint32_t t = 0; t < kTenants; ++t) {
        drained = drained && views[t].buffersConsumed() + views[t].buffersLost() >= finalSeq[t];
      }
      if (!drained) sleepUntilNs(nowNs() + 1'000'000);
    }
    const double wall = static_cast<double>(nowNs() - start) / 1e9;
    // Read while the daemon's threads still exist.
    const double daemonCpu = daemonCpuNow() - daemonCpu0;
    const std::vector<daemon::TenantStatus> statuses = daemon.tenantStatuses();
    daemon.stop();
    tailStop.store(true);
    tail.join();
    for (uint32_t t = 0; t < kTenants; ++t) {
      cursors[t]->finish();
      drainTail(t, false);
    }

    // Output checks: files decode to each tenant's replayed input exactly
    // once in order, and the tail delivered every event exactly once.
    uint64_t attempted = 0, rejected = 0, events = 0, lost = 0, diskBytes = 0;
    uint64_t badEvents = 0;
    std::vector<double> late, logNs;
    for (uint32_t t = 0; t < kTenants; ++t) {
      const OpenLoopStats& s = stats[t];
      attempted += s.attempted;
      rejected += s.rejected;
      late.insert(late.end(), s.lateNs.begin(), s.lateNs.end());
      logNs.insert(logNs.end(), s.logNs.begin(), s.logNs.end());
      lost += views[t].buffersLost();
      const StreamCheck check = checkFiles(outputs[t], input.streams[t], logged[t]);
      events += check.events;
      uint64_t bad = check.mismatches + check.undecodable;
      if (check.mismatches + check.undecodable != 0) {
        out.fail("tenant " + std::to_string(t) + ": " +
                 std::to_string(check.mismatches) + " mismatched and " +
                 std::to_string(check.undecodable) + " undecodable events");
      }
      if (tailEvents[t] != logged[t]) {
        out.fail("tenant " + std::to_string(t) + ": the tail delivered " +
                 std::to_string(tailEvents[t]) + " of " +
                 std::to_string(logged[t]) + " events");
        bad = std::max(bad, tailEvents[t] > logged[t] ? tailEvents[t] - logged[t]
                                                       : logged[t] - tailEvents[t]);
      }
      badEvents += bad;
      for (uint32_t segment = 0;; ++segment) {
        const std::string path = rotationSegmentPath(outputs[t], segment);
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (ec) break;
        diskBytes += size;
      }
    }
    uint64_t sinkDrops = 0, torn = 0, drainedBuffers = 0, rawBytes = 0, bytes = 0;
    for (const daemon::TenantStatus& s : statuses) {
      sinkDrops += s.sink.recordsDropped;
      torn += s.recovery.tornBuffers;
      drainedBuffers += s.sink.recordsAccepted;
      rawBytes += s.sink.rawBytes;
      bytes += s.sink.bytesWritten;
    }
    out.attempted += attempted;
    // A refused, dropped or lost event also fails the file check; count it
    // once.
    out.failed += std::max(badEvents, rejected + sinkDrops);
    if (leaseFailures.load() != 0) out.fail("lease acquisition failed");
    if (!drained) out.fail("daemon did not drain the sessions within 10 s");
    if (rejected + sinkDrops + lost + torn != 0) {
      out.fail("rejected " + std::to_string(rejected) + ", sink drops " +
               std::to_string(sinkDrops) + ", lost buffers " +
               std::to_string(lost) + ", torn buffers " + std::to_string(torn));
    }
    if (backlog.growing(kBacklogSlackBuffers)) {
      out.fail("over capacity: backlog grew from " +
               std::to_string(backlog.firstThird()) + " to " +
               std::to_string(backlog.lastThird()) + " buffers");
    }
    sessions_.clear();

    out.addDist("visible_ms", "ms", distOf(visibleNs.take()), 1e-6);
    const Dist logDist = distOf(logNs);
    out.addDist("log_ns", "ns", logDist);
    out.addDist("gen_late_ms", "ms", distOf(late), 1e-6);
    out.add("events_per_s", "1/s", windows.eventsPerSecond(), windows.windows(), "p50");
    out.add("cpu_ms_per_mevent", "ms", windows.cpuMsPerMevent(), windows.windows(), "p50");
    out.add("disk_bytes_per_event", "B",
            static_cast<double>(diskBytes) / static_cast<double>(events));
    out.add("backlog_first_third", "buffers", backlog.firstThird());
    out.add("backlog_last_third", "buffers", backlog.lastThird());
    if (!traced) return;

    out.add("shm.log_ns_p50", "ns", logDist.p50, logDist.n, "p50");
    out.add("shm_session.buffers_drained", "count", static_cast<double>(drainedBuffers));
    out.add("shm_session.torn_buffers", "count", static_cast<double>(torn));
    const Dist bl = distOf(backlog.samples());
    out.add("daemon.backlog_buffers_p99", "count", bl.tail, bl.n, "p99");
    out.add("daemon.cpu_share", "ratio", daemonCpu / wall);
    out.addDist("trace_file.io_write_us", "us", distOf(timingFs.writeNs().take()), 1e-3);
    out.add("trace_file.writes_per_record", "ratio",
            static_cast<double>(timingFs.writes()) /
                static_cast<double>(std::max<uint64_t>(1, drainedBuffers)));
    out.add("trace_file.compression_ratio", "ratio",
            static_cast<double>(rawBytes) /
                static_cast<double>(std::max<uint64_t>(1, bytes)));
  }

 private:
  std::string segmentPath(uint32_t t) const {
    return sessionDir_ + "/t" + std::to_string(t) + ".kses";
  }

  static bool waitAdmitted(const daemon::TraceDaemon& daemon) {
    const uint64_t deadline = nowNs() + 5'000'000'000ull;
    while (nowNs() < deadline) {
      uint32_t active = 0;
      for (const daemon::TenantStatus& s : daemon.tenantStatuses()) {
        if (s.state == daemon::TenantState::Active) ++active;
      }
      if (active == kTenants) return true;
      sleepUntilNs(nowNs() + 5'000'000);
    }
    return false;
  }

  Options o_;
  std::string dir_, sessionDir_, outDir_;
  std::vector<ShmSession> sessions_;
};

}  // namespace

std::unique_ptr<Workload> makeIngest(const Options& options) {
  return std::make_unique<Ingest>(options);
}

}  // namespace pipebench
