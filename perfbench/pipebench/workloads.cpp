#include "pipebench/workloads.hpp"

#include <algorithm>

#include "core/ktrace.hpp"
#include "pipebench/trace.hpp"

namespace pipebench {

void LogCostSampler::begin() noexcept {
  wallStart_ = nowNs();
  cpuStart_ = threadCpuNs();
}

void LogCostSampler::end(uint64_t calls) {
  cpuNs_ += threadCpuNs() - cpuStart_;
  Spans::record(Layer::ProducerBatch, wallStart_, nowNs(), processor_, runs_++,
                static_cast<uint32_t>(calls));
  calls_ += calls;
  if (calls_ >= kLogBatch) {
    samples_.push_back(static_cast<double>(cpuNs_) / static_cast<double>(calls_));
    calls_ = 0;
    cpuNs_ = 0;
  }
}

void RateWindows::sample(uint64_t tNs, uint64_t events, double cpuSeconds) {
  if (primed_ && tNs > lastT_ && events > lastEvents_) {
    const double de = static_cast<double>(events - lastEvents_);
    rates_.push_back(de / (static_cast<double>(tNs - lastT_) / 1e9));
    cpuPerEvent_.push_back((cpuSeconds - lastCpu_) * 1e3 / (de / 1e6));
  }
  if (!primed_) firstEvents_ = events;
  primed_ = true;
  lastT_ = tNs;
  lastEvents_ = events;
  lastCpu_ = cpuSeconds;
}

double RateWindows::eventsPerSecond() const { return distOf(rates_).p50; }

double RateWindows::cpuMsPerMevent() const { return distOf(cpuPerEvent_).p50; }

double BacklogTrack::firstThird() const {
  const size_t third = samples_.size() / 3;
  return distOf({samples_.begin(), samples_.begin() + static_cast<ptrdiff_t>(third)}).p50;
}

double BacklogTrack::lastThird() const {
  const size_t third = samples_.size() / 3;
  return distOf({samples_.end() - static_cast<ptrdiff_t>(third), samples_.end()}).p50;
}

namespace {

/// Median ns per call of `iterations` calls of `body`, over five batches.
template <typename F>
double probeNs(uint64_t iterations, F&& body) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const uint64_t t0 = nowNs();
    for (uint64_t i = 0; i < iterations; ++i) body(i);
    batches.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(iterations));
  }
  return distOf(batches).p50;
}

}  // namespace

void addLoggerProbes(RunResult& out) {
  using namespace ktrace;
  FacilityConfig fcfg;
  fcfg.numProcessors = 1;
  fcfg.mode = Mode::FlightRecorder;
  Facility facility(fcfg);
  facility.mask().enableAll();
  facility.mask().disable(Major::Prof);
  facility.bindCurrentThread(0);
  const ClockRef clock = facility.control(0).clock();
  uint64_t sinkValue = 0;
  out.add("mask.disabled_ns", "ns", probeNs(1'000'000, [&](uint64_t i) {
            sinkValue += facility.log(Major::Prof, 0, i) ? 1 : 0;
          }));
  out.add("timestamp.clock_ns", "ns", probeNs(1'000'000, [&](uint64_t) {
            sinkValue += clock();
          }));
  out.add("logger.fixed_ns", "ns", probeNs(1'000'000, [&](uint64_t i) {
            sinkValue += facility.log(Major::Test, 1, i, sinkValue) ? 1 : 0;
          }));
  const std::vector<uint64_t> data(12, 0x5eed);
  out.add("logger.data_ns", "ns", probeNs(1'000'000, [&](uint64_t) {
            sinkValue += facility.logData(Major::Test, 2, data) ? 1 : 0;
          }));
  facility.unbindCurrentThread();
  if (sinkValue == 0) out.fail("probe loggers logged nothing");
}

void addControlCounters(const ktrace::Facility& facility, RunResult& out) {
  uint64_t events = 0, stale = 0, retries = 0, slow = 0;
  uint64_t fillerWords = 0, reservedWords = 0;
  for (uint32_t p = 0; p < facility.numProcessors(); ++p) {
    const ktrace::TraceControl& c = facility.control(p);
    for (uint32_t m = 0; m < static_cast<uint32_t>(ktrace::Major::MajorCount); ++m) {
      events += c.eventsLoggedFor(static_cast<ktrace::Major>(m));
    }
    stale += c.staleCommits();
    retries += c.reserveRetries();
    slow += c.slowPathEntries();
    fillerWords += c.fillerWordsWritten();
    reservedWords += c.wordsReservedCount();
  }
  const double kevents = std::max(1.0, static_cast<double>(events) / 1e3);
  out.add("control.retries_per_kevent", "1/kevent",
          static_cast<double>(retries) / kevents);
  out.add("control.slowpath_per_kevent", "1/kevent",
          static_cast<double>(slow) / kevents);
  out.add("control.filler_ratio", "ratio",
          static_cast<double>(fillerWords) /
              std::max(1.0, static_cast<double>(fillerWords + reservedWords)));
  out.add("control.stale_commits", "count", static_cast<double>(stale));
}

}  // namespace pipebench
