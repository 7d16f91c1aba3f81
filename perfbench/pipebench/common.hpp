// Shared plumbing of the pipeline benchmark: clocks, the percentile rule,
// process accounting, open-loop pacing and the result line.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pipebench {

/// Steady-clock nanoseconds (CLOCK_MONOTONIC).
uint64_t nowNs() noexcept;
/// CPU time of the calling thread, ns.
uint64_t threadCpuNs() noexcept;
/// Sleeps until the steady clock reads `deadlineNs` (returns at once when
/// it already has).
void sleepUntilNs(uint64_t deadlineNs) noexcept;

/// A latency distribution reported by the percentile rule: the median and
/// the highest percentile of {99, 90, 75} that still has at least
/// ten samples beyond it. With fewer than 20 samples the tail is the
/// median itself (tailPct 50); with none every field is 0.
struct Dist {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tailPct = 50;
};
Dist distOf(std::vector<double> samples);

/// Nearest-rank percentile of an ascending vector (q in [0, 100]).
double percentileSorted(const std::vector<double>& sorted, double q);

/// Process CPU time (user + system) of this process, or of its waited-for
/// children, in seconds.
double selfCpuSeconds();
double childrenCpuSeconds();
/// Peak resident set of this process and of its waited-for children, MB.
double peakRssMb();

/// Per-(processor, buffer seq) timestamp table shared between pipeline
/// threads: a ring of relaxed atomics, 0 = not recorded. Sized for far
/// more buffers than one run completes.
class SeqTimes {
 public:
  explicit SeqTimes(uint32_t processors, uint32_t ringBits = 17);
  void set(uint32_t processor, uint64_t seq, uint64_t ns) noexcept;
  uint64_t get(uint32_t processor, uint64_t seq) const noexcept;
  /// Stores only when nothing was recorded yet; true when it stored.
  bool setOnce(uint32_t processor, uint64_t seq, uint64_t ns) noexcept;

 private:
  uint32_t processors_;
  uint64_t mask_;
  std::unique_ptr<std::atomic<uint64_t>[]> slots_;
};

/// Open-loop schedule of one generator thread: Poisson arrivals at
/// `ratePerSecond`, grouped into ticks of `tickNs`. Same seed, same counts.
class TickSchedule {
 public:
  TickSchedule(uint64_t seed, double ratePerSecond, uint64_t tickNs);
  /// Events due in the next tick.
  uint32_t next();

 private:
  uint64_t state_;
  double mean_;
};

/// One metric of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 0;  // 0: not a sampled distribution
  std::string note;    // e.g. "p99" for a tail percentile
};

/// Everything a workload run hands back to main().
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void add(std::string name, std::string unit, double value,
           size_t samples = 0, std::string note = {});
  /// Adds `<base>_p50` and `<base>_p99` (or the tail the rule allows) from
  /// a distribution, scaled by `scale`.
  void addDist(const std::string& base, const std::string& unit,
               const Dist& d, double scale = 1.0);
  const Metric* find(const std::string& name) const;
  void fail(std::string message);
};

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workDir;  // scratch directory, removed when the run ends
};

/// 64-bit FNV-1a mixing, used for every digest the benchmark takes.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void mix(uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void mix(const std::string& s) noexcept {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    mix(s.size());
  }
};

/// Threads whose CPU time /proc/self/task reports, keyed by tid.
struct ThreadCpu {
  int tid = 0;
  double seconds = 0;
};
std::vector<ThreadCpu> threadCpuTimes();
int currentTid() noexcept;

}  // namespace pipebench
