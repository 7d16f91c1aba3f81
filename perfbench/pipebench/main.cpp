// pipebench: the ktrace pipeline benchmark.
//
//   pipebench --workload log_percpu|collect|ingest|replay --seed N
//             --seconds S --trace 0|1
//
// Generates the run's input from --seed (SDET on ossim), sets up the
// workload several times (setup_s is the median), measures for --seconds,
// checks the outputs, prints every metric by name with its unit and
// sample count, and ends with one JSON line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced for half the time and traced for the other half and reports
// the per-layer metrics plus trace.overhead_pct.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "pipebench/trace.hpp"
#include "pipebench/workloads.hpp"

using namespace pipebench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The result line's metrics (BENCHMARK.json lists the same names): the
// end-to-end metrics every workload has and whose run-to-run spread stays
// inside the bounds. The latency distributions are printed, not gated:
// on a virtualised 4-core host their spread exceeds any bound the result
// line allows (see README.md).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"events_per_s", "1/s"},
    {"cpu_ms_per_mevent", "ms"},
    {"rss_mb_peak", "MB"},
};

// Per-layer metrics of the result line. A layer a workload bypasses does
// no work there and reports 0. Per-layer times that only some workloads
// measure (handoff, queue wait, analyzer and sink self time, I/O, reader
// merge, folds) are printed by those workloads but kept off the result
// line, where a time must never read the same on every run.
const MetricSpec kPerLayer[] = {
    {"mask.disabled_ns", "ns"},
    {"timestamp.clock_ns", "ns"},
    {"logger.fixed_ns", "ns"},
    {"logger.data_ns", "ns"},
    {"control.retries_per_kevent", "1/kevent"},
    {"control.slowpath_per_kevent", "1/kevent"},
    {"control.filler_ratio", "ratio"},
    {"control.stale_commits", "count"},
    {"consumer.passes_per_buffer", "ratio"},
    {"consumer.lost", "count"},
    {"consumer.commit_mismatches", "count"},
    {"batching_sink.records_per_batch", "count"},
    {"batching_sink.backpressure_waits", "count"},
    {"live_analyzer.busy_share", "ratio"},
    {"trace_file.busy_share", "ratio"},
    {"trace_file.writes_per_record", "ratio"},
    {"trace_file.compression_ratio", "ratio"},
    {"shm_session.buffers_drained", "count"},
    {"shm_session.torn_buffers", "count"},
    {"daemon.backlog_buffers_p99", "count"},
    {"daemon.cpu_share", "ratio"},
    {"reader.raw_mb_per_s", "MB/s"},
    {"reader.raw_mb_per_s_1t", "MB/s"},
    {"reader.lz_mb_per_s", "MB/s"},
    {"reader.lz_mb_per_s_1t", "MB/s"},
    {"trace.overhead_pct", "%"},
};

constexpr int kSetupReps = 9;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload "
               "log_percpu|collect|ingest|replay --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.seed = 0;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
      haveSeed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty() || !haveSeed) usage("--workload and --seed are required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  o.workDir = ".bench_work/" + o.workload + "-" + std::to_string(::getpid());
  return o;
}

std::unique_ptr<Workload> make(const Options& o) {
  static const std::map<std::string,
                        std::function<std::unique_ptr<Workload>(const Options&)>>
      factories = {{"log_percpu", makeLogPercpu},
                   {"collect", makeCollect},
                   {"ingest", makeIngest},
                   {"replay", makeReplay}};
  const auto it = factories.find(o.workload);
  if (it == factories.end()) usage(("unknown workload " + o.workload).c_str());
  return it->second(o);
}

void printHuman(const Options& o, const RunResult& r, const SdetInput& input) {
  std::printf("# pipebench workload=%s seed=%llu seconds=%g trace=%d "
              "input_digest=%016llx input_events=%llu words_per_event=%.3f\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0,
              static_cast<unsigned long long>(input.digest()),
              static_cast<unsigned long long>(input.totalEvents()),
              input.meanEventWords());
  for (const Metric& m : r.metrics) {
    std::printf("%-34s %16.6g %-9s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples != 0) {
      std::printf(" (%s of n=%zu)", m.note.c_str(), m.samples);
    }
    std::printf("\n");
  }
  const double loss = r.attempted == 0 ? 0
                                       : static_cast<double>(r.failed) /
                                             static_cast<double>(r.attempted);
  std::printf("%-34s %16.6g %-9s (failed %llu of attempted %llu)\n",
              "loss_ratio", loss, "ratio",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& e : r.errors) std::printf("# CHECK FAILED: %s\n", e.c_str());
}

/// The traced half's self-time table, one line per layer that recorded
/// spans.
void printSelfTimes(const SelfTimeTable& table) {
  for (size_t i = 0; i < table.size(); ++i) {
    const LayerTime& t = table[i];
    if (t.spans == 0) continue;
    std::printf("# self-time %-18s spans=%llu buffers=%llu span_ms=%.3f self_ms=%.3f\n",
                layerName(static_cast<Layer>(i)),
                static_cast<unsigned long long>(t.spans),
                static_cast<unsigned long long>(t.items), t.spanNs / 1e6,
                t.selfNs / 1e6);
  }
}

std::string jsonLine(const RunResult& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    const Metric* m = r.find(spec.name);
    if (m == nullptr) throw std::logic_error(std::string("metric not measured: ") + spec.name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m->value);
    out += first ? "" : ", ";
    first = false;
    out.append("\"").append(spec.name).append("\": {\"value\": ").append(value);
    out.append(", \"unit\": \"").append(spec.unit).append("\"}");
  };
  if (trace) {
    for (const MetricSpec& s : kPerLayer) emit(s);
  } else {
    for (const MetricSpec& s : kEndToEnd) emit(s);
  }
  return out + "}}";
}

int runMain(const Options& o) {
  std::unique_ptr<Workload> workload = make(o);
  std::filesystem::create_directories(o.workDir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{o.workDir};

  // Set-up: SDET generation plus the workload's own preparation, repeated.
  SdetInput input;
  std::vector<double> setupTimes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const uint64_t t0 = nowNs();
    input = makeSdetInput(o.seed, kInputProcessors);
    workload->prepare(input);
    setupTimes.push_back(static_cast<double>(nowNs() - t0) / 1e9);
  }

  RunResult result;
  std::optional<SelfTimeTable> selfTimes;  // traced runs only
  if (!o.trace) {
    workload->run(input, o.seconds, false, result);
  } else {
    RunResult untraced;
    workload->run(input, o.seconds / 2, false, untraced);
    workload->prepare(input);
    Spans::clear();
    Spans::enable(true);
    workload->run(input, o.seconds / 2, true, result);
    Spans::enable(false);
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    for (const std::string& e : untraced.errors) result.fail(e);
    const Metric* before = untraced.find("cpu_ms_per_mevent");
    const Metric* after = result.find("cpu_ms_per_mevent");
    if (before != nullptr && after != nullptr && before->value > 0) {
      result.add("trace.overhead_pct", "%",
                 (after->value / before->value - 1.0) * 100.0);
    }
    addLoggerProbes(result);
    selfTimes = selfTimeTable(Spans::snapshot());
    const std::string spansPath = ".bench_work/spans-" + o.workload + ".tsv";
    if (!Spans::writeTsv(spansPath)) result.fail("cannot write " + spansPath);
    for (const MetricSpec& spec : kPerLayer) {
      if (result.find(spec.name) == nullptr) result.add(spec.name, spec.unit, 0);
    }
  }
  result.add("setup_s", "s", distOf(setupTimes).p50, setupTimes.size(), "p50");
  result.add("rss_mb_peak", "MB", peakRssMb());
  if (result.attempted == 0) result.fail("no operation was attempted");

  printHuman(o, result, input);
  if (selfTimes) printSelfTimes(*selfTimes);
  const std::string line = jsonLine(result, o.trace);
  std::fflush(stdout);
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return runMain(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
}
