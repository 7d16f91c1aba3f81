#include "pipebench/common.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pipebench {

uint64_t nowNs() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t threadCpuNs() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void sleepUntilNs(uint64_t deadlineNs) noexcept {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadlineNs / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(deadlineNs % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

double percentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  // Nearest rank: the smallest value with at least q% of samples <= it.
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = rank <= 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

Dist distOf(std::vector<double> samples) {
  Dist d;
  d.n = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = percentileSorted(samples, 50);
  d.tail = d.p50;
  d.tailPct = 50;
  for (const double q : {99.0, 90.0, 75.0}) {
    const double beyond = static_cast<double>(d.n) * (100.0 - q) / 100.0;
    if (beyond >= 10.0) {
      d.tail = percentileSorted(samples, q);
      d.tailPct = q;
      break;
    }
  }
  return d;
}

namespace {
double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}
}  // namespace

double selfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double childrenCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double peakRssMb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // ru_maxrss is in KiB on Linux
}

SeqTimes::SeqTimes(uint32_t processors, uint32_t ringBits)
    : processors_(processors),
      mask_((uint64_t{1} << ringBits) - 1),
      slots_(new std::atomic<uint64_t>[static_cast<size_t>(processors) << ringBits]) {
  const size_t n = static_cast<size_t>(processors) << ringBits;
  for (size_t i = 0; i < n; ++i) slots_[i].store(0, std::memory_order_relaxed);
}

void SeqTimes::set(uint32_t processor, uint64_t seq, uint64_t ns) noexcept {
  slots_[(static_cast<uint64_t>(processor) * (mask_ + 1)) + (seq & mask_)].store(
      ns, std::memory_order_release);
}

uint64_t SeqTimes::get(uint32_t processor, uint64_t seq) const noexcept {
  if (processor >= processors_) return 0;
  return slots_[(static_cast<uint64_t>(processor) * (mask_ + 1)) + (seq & mask_)]
      .load(std::memory_order_acquire);
}

bool SeqTimes::setOnce(uint32_t processor, uint64_t seq, uint64_t ns) noexcept {
  uint64_t expected = 0;
  return slots_[(static_cast<uint64_t>(processor) * (mask_ + 1)) + (seq & mask_)]
      .compare_exchange_strong(expected, ns, std::memory_order_acq_rel);
}

namespace {
uint64_t splitmix(uint64_t& state) noexcept {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
double unit(uint64_t& state) noexcept {
  return (static_cast<double>(splitmix(state) >> 11) + 0.5) * 0x1.0p-53;
}
}  // namespace

TickSchedule::TickSchedule(uint64_t seed, double ratePerSecond, uint64_t tickNs)
    : state_(seed), mean_(ratePerSecond * static_cast<double>(tickNs) / 1e9) {}

uint32_t TickSchedule::next() {
  if (mean_ < 30) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double limit = std::exp(-mean_);
    uint32_t k = 0;
    for (double p = unit(state_); p > limit; p *= unit(state_)) ++k;
    return k;
  }
  // Normal approximation of Poisson(mean) for large means (Box-Muller).
  const double z = std::sqrt(-2.0 * std::log(unit(state_))) *
                   std::cos(2.0 * M_PI * unit(state_));
  const double v = std::round(mean_ + std::sqrt(mean_) * z);
  return v <= 0 ? 0u : static_cast<uint32_t>(v);
}

void RunResult::add(std::string name, std::string unitName, double value,
                    size_t samples, std::string note) {
  metrics.push_back(
      {std::move(name), std::move(unitName), value, samples, std::move(note)});
}

void RunResult::addDist(const std::string& base, const std::string& unitName,
                        const Dist& d, double scale) {
  add(base + "_p50", unitName, d.p50 * scale, d.n, "p50");
  char note[32];
  std::snprintf(note, sizeof(note), "p%g", d.tailPct);
  add(base + "_p99", unitName, d.tail * scale, d.n, note);
}

const Metric* RunResult::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RunResult::fail(std::string message) {
  correct = false;
  errors.push_back(std::move(message));
}

int currentTid() noexcept { return static_cast<int>(::syscall(SYS_gettid)); }

std::vector<ThreadCpu> threadCpuTimes() {
  std::vector<ThreadCpu> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string path =
        std::string("/proc/self/task/") + entry->d_name + "/stat";
    std::ifstream in(path);
    std::string line;
    if (!std::getline(in, line)) continue;
    // Fields after the parenthesised command: state is field 3, utime
    // and stime are fields 14 and 15.
    const size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::strtod(field.c_str(), nullptr);
      if (i == 15) stime = std::strtod(field.c_str(), nullptr);
    }
    out.push_back({std::atoi(entry->d_name), (utime + stime) / ticks});
  }
  ::closedir(dir);
  return out;
}

}  // namespace pipebench
