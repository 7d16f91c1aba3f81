// The four workloads. Each one builds its pipeline from scratch in run(),
// so a traced run can measure an untraced half and a traced half in one
// process and compare them (trace.overhead_pct).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/facility.hpp"
#include "core/shm.hpp"
#include "pipebench/common.hpp"
#include "pipebench/input.hpp"

namespace pipebench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-up beyond SDET generation (trace files, shm sessions). Timed
  /// into setup_s and repeated, so it must be idempotent.
  virtual void prepare(const SdetInput& input) { (void)input; }
  /// The measured phase. Adds the workload's metrics to `out` under their
  /// own names, including events_per_s and cpu_ms_per_mevent. Per-layer
  /// metrics only when `traced`.
  virtual void run(const SdetInput& input, double seconds, bool traced,
                   RunResult& out) = 0;
};

std::unique_ptr<Workload> makeLogPercpu(const Options& options);
std::unique_ptr<Workload> makeCollect(const Options& options);
std::unique_ptr<Workload> makeIngest(const Options& options);
std::unique_ptr<Workload> makeReplay(const Options& options);

/// SDET processors every workload's input is generated for.
constexpr uint32_t kInputProcessors = 4;

/// Adapters giving Facility and ShmTraceControl the fixed()/data() shape
/// dispatchEvent expects.
struct FacilityLog {
  ktrace::Facility& facility;
  template <typename... Ws>
  bool fixed(ktrace::Major major, uint16_t minor, Ws... words) {
    return facility.log(major, minor, words...);
  }
  bool data(ktrace::Major major, uint16_t minor, std::span<const uint64_t> w) {
    return facility.logData(major, minor, w);
  }
};

struct ShmLog {
  ktrace::ShmTraceControl& control;
  template <typename... Ws>
  bool fixed(ktrace::Major major, uint16_t minor, Ws... words) {
    return control.logEvent(major, minor, words...);
  }
  bool data(ktrace::Major major, uint16_t minor, std::span<const uint64_t> w) {
    return control.logEventData(major, minor, w);
  }
};

/// Per-call cost samples are taken over batches of this many log calls.
constexpr uint32_t kLogBatch = 1024;

/// Open-loop generator tick.
constexpr uint64_t kTickNs = 100'000;

/// Every workload runs this long before its measured phase, so caches,
/// page faults and lazily grown structures settle first.
constexpr uint64_t kWarmupNs = 1'000'000'000;

/// Throughput and CPU per event are medians over windows this long.
constexpr uint64_t kWindowNs = 100'000'000;

/// Accumulates producer log-call cost into kLogBatch-call samples: thread
/// CPU ns per call, so a thread descheduled mid-batch by other work on
/// the host does not count the wait as logging cost. Records a
/// ProducerBatch span (wall clock) around every begin()/end() run of calls
/// when tracing.
class LogCostSampler {
 public:
  explicit LogCostSampler(uint32_t processor) : processor_(processor) {}
  /// Call before a run of log calls ...
  void begin() noexcept;
  /// ... and after it, with the number of calls made.
  void end(uint64_t calls);
  std::vector<double>& samples() noexcept { return samples_; }

 private:
  uint32_t processor_;
  uint64_t calls_ = 0;
  uint64_t cpuNs_ = 0;
  uint64_t cpuStart_ = 0;
  uint64_t wallStart_ = 0;
  uint64_t runs_ = 0;
  std::vector<double> samples_;
};

/// Per-window rates of a run, reported as medians over the windows so a
/// few windows disturbed by other work on the host do not move them.
class RateWindows {
 public:
  /// Cumulative events and process CPU seconds at steady time `tNs`.
  void sample(uint64_t tNs, uint64_t events, double cpuSeconds);
  double eventsPerSecond() const;
  double cpuMsPerMevent() const;
  size_t windows() const noexcept { return rates_.size(); }
  /// Events counted from the first sample to the last.
  uint64_t events() const noexcept { return lastEvents_ - firstEvents_; }

 private:
  bool primed_ = false;
  uint64_t lastT_ = 0, lastEvents_ = 0, firstEvents_ = 0;
  double lastCpu_ = 0;
  std::vector<double> rates_, cpuPerEvent_;
};

/// Backlog samples of an open-loop run; the run is over capacity when the
/// backlog in its last third exceeds that of its first third. Thirds are
/// compared by their medians: a backlog that grows moves the median, a
/// short stall does not.
class BacklogTrack {
 public:
  void add(double value) { samples_.push_back(value); }
  /// Median of the first and last thirds.
  double firstThird() const;
  double lastThird() const;
  /// Slack: a growing backlog must rise by more than this many buffers
  /// to count (the queue legitimately holds up to a batch or two).
  bool growing(double slack) const { return lastThird() > firstThird() + slack; }
  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  std::vector<double> samples_;
};

/// What one open-loop generator thread did.
struct OpenLoopStats {
  uint64_t attempted = 0;
  uint64_t rejected = 0;      // log calls the logger refused
  std::vector<double> lateNs; // per tick: start minus due time
  std::vector<double> logNs;  // per kLogBatch calls: ns per call
};

/// Open-loop generator: from `startNs` until `endNs`, every kTickNs tick
/// logs the tick's Poisson count of the stream's next events, then stamps
/// each buffer the tick completed with the tick's due time (a buffer is
/// complete when the logger's current buffer seq moves past it).
/// `currentSeq()` reads the logger's current buffer seq. Ticks due before
/// `measureFromNs` are warm-up: they log, but record no samples and stamp
/// no buffers, so no latency is measured for them.
template <typename Log, typename SeqFn>
OpenLoopStats runOpenLoop(Log& log, SeqFn currentSeq, const SdetStream& stream,
                          TickSchedule& schedule, uint64_t startNs,
                          uint64_t measureFromNs, uint64_t endNs,
                          SeqTimes& completed, uint32_t processor) {
  OpenLoopStats st;
  LogCostSampler sampler(processor);
  uint64_t next = 0;      // index into the replayed stream
  uint64_t lastSeq = currentSeq();
  for (uint64_t k = 0;; ++k) {
    const uint64_t due = startNs + k * kTickNs;
    if (due >= endNs) break;
    sleepUntilNs(due);
    const bool measured = due >= measureFromNs;
    if (measured) st.lateNs.push_back(static_cast<double>(nowNs() - due));
    const uint32_t n = schedule.next();
    if (measured) sampler.begin();
    for (uint32_t i = 0; i < n; ++i, ++next) {
      if (!dispatchEvent(log, stream, stream.at(next))) ++st.rejected;
    }
    if (measured) sampler.end(n);
    st.attempted += n;
    for (const uint64_t seq = currentSeq(); lastSeq < seq; ++lastSeq) {
      if (measured) completed.set(processor, lastSeq, due);
    }
  }
  st.logNs = std::move(sampler.samples());
  return st;
}

/// Traced runs only: probe batches of the logger's layers on a private
/// one-processor facility (mask.disabled_ns, timestamp.clock_ns,
/// logger.fixed_ns, logger.data_ns).
void addLoggerProbes(RunResult& out);

/// Traced runs only: TraceControl's public counters summed over the
/// facility (control.retries_per_kevent, control.slowpath_per_kevent,
/// control.filler_ratio, control.stale_commits).
void addControlCounters(const ktrace::Facility& facility, RunResult& out);

}  // namespace pipebench
