// log_percpu: closed loop, every processor logging at once (paper §3.1-3.2).
//
// Four threads, each bound to its own processor of one FlightRecorder
// facility with no consumer, replay their processor's SDET stream as fast
// as they can. One SDET major class is masked off, so the mask check,
// the timestamp and reserve/commit are all that run; drain, sink and
// decode do no work.
#include <atomic>
#include <thread>

#include "core/ktrace.hpp"
#include "pipebench/trace.hpp"
#include "pipebench/workloads.hpp"

namespace pipebench {

using namespace ktrace;

namespace {

constexpr Major kMaskedMajor = Major::Prof;

class LogPercpu final : public Workload {
 public:
  void run(const SdetInput& input, double seconds, bool traced,
           RunResult& out) override {
    FacilityConfig fcfg;
    fcfg.numProcessors = kInputProcessors;
    fcfg.bufferWords = 1u << 14;
    fcfg.buffersPerProcessor = 8;
    fcfg.mode = Mode::FlightRecorder;
    Facility facility(fcfg);
    facility.mask().enableAll();
    facility.mask().disable(kMaskedMajor);

    struct PerThread {
      uint64_t enabledCalls = 0;
      uint64_t rejected = 0;  // enabled calls the logger refused
      std::vector<double> samples;
    };
    std::vector<PerThread> results(kInputProcessors);
    // Logged-event counts read by the window sampler, one cache line each
    // so the producers never share a line.
    struct alignas(64) Progress {
      std::atomic<uint64_t> logged{0};
    };
    std::vector<Progress> progress(kInputProcessors);
    std::atomic<bool> measuring{false}, stop{false};
    std::atomic<uint32_t> ready{0};
    std::vector<std::thread> threads;
    for (uint32_t p = 0; p < kInputProcessors; ++p) {
      threads.emplace_back([&, p] {
        facility.bindCurrentThread(p);
        const SdetStream& stream = input.streams[p];
        FacilityLog log{facility};
        LogCostSampler sampler(p);
        PerThread& r = results[p];
        ready.fetch_add(1);
        while (ready.load() < kInputProcessors) std::this_thread::yield();
        uint64_t i = 0, enabledCalls = 0, rejected = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const bool measured = measuring.load(std::memory_order_relaxed);
          if (measured) sampler.begin();
          for (uint32_t k = 0; k < kLogBatch; ++k, ++i) {
            const InEvent& e = stream.at(i);
            const bool ok = dispatchEvent(log, stream, e);
            if (e.major != kMaskedMajor) {
              ++enabledCalls;
              if (!ok) ++rejected;
            }
          }
          if (measured) sampler.end(kLogBatch);
          progress[p].logged.store(enabledCalls - rejected, std::memory_order_relaxed);
        }
        r.enabledCalls = enabledCalls;
        r.rejected = rejected;
        r.samples = std::move(sampler.samples());
        facility.unbindCurrentThread();
      });
    }
    while (ready.load() < kInputProcessors) std::this_thread::yield();
    sleepUntilNs(nowNs() + kWarmupNs);
    measuring.store(true);
    const uint64_t start = nowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    RateWindows windows;
    for (uint64_t t = start; t < end; t += kWindowNs) {
      sleepUntilNs(t);
      uint64_t events = 0;
      for (uint32_t p = 0; p < kInputProcessors; ++p) events += progress[p].logged.load();
      windows.sample(nowNs(), events, selfCpuSeconds());
    }
    sleepUntilNs(end);
    stop.store(true);
    for (auto& t : threads) t.join();

    uint64_t enabled = 0, rejected = 0, logged = 0;
    std::vector<double> samples;
    for (const PerThread& r : results) {
      enabled += r.enabledCalls;
      rejected += r.rejected;
      samples.insert(samples.end(), r.samples.begin(), r.samples.end());
    }
    uint64_t controlRejected = 0, stale = 0;
    for (uint32_t p = 0; p < kInputProcessors; ++p) {
      const TraceControl& c = facility.control(p);
      for (uint32_t m = 0; m < static_cast<uint32_t>(Major::MajorCount); ++m) {
        logged += c.eventsLoggedFor(static_cast<Major>(m));
      }
      controlRejected += c.rejectedEvents();
      stale += c.staleCommits();
    }
    out.attempted += enabled;
    out.failed += rejected;
    if (logged != enabled - rejected) {
      out.fail("eventsLoggedFor sums to " + std::to_string(logged) +
               ", expected " + std::to_string(enabled - rejected));
      out.failed += logged > enabled ? logged - enabled : enabled - logged;
    }
    if (rejected != 0 || controlRejected != 0) {
      out.fail("logger rejected " + std::to_string(rejected) + " reserves");
    }
    if (stale != 0) out.fail("stale commits: " + std::to_string(stale));

    out.addDist("log_ns", "ns", distOf(samples));
    out.add("events_per_s", "1/s", windows.eventsPerSecond(), windows.windows(), "p50");
    out.add("cpu_ms_per_mevent", "ms", windows.cpuMsPerMevent(), windows.windows(), "p50");
    if (traced) addControlCounters(facility, out);
  }
};

}  // namespace

std::unique_ptr<Workload> makeLogPercpu(const Options&) {
  return std::make_unique<LogPercpu>();
}

}  // namespace pipebench
