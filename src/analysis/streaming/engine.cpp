#include "analysis/streaming/engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/table.hpp"

namespace ktrace::analysis::streaming {

namespace {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::strprintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return util::strprintf("%.10g", v);
}

}  // namespace

StreamEngine::StreamEngine(StreamEngineConfig config,
                           std::vector<DerivedMonitor> monitors)
    : config_(config), monitors_(std::move(monitors)) {}

void StreamEngine::addFold(std::unique_ptr<Fold> fold) {
  const Route route{fold.get(), fold->majorMask()};
  if (fold->needsMergedOrder()) {
    mergedFolds_.push_back(route);
    mergedMask_ |= route.mask;
  } else {
    perProcessorFolds_.push_back(route);
  }
  folds_.push_back(std::move(fold));
}

StreamEngine::Window* StreamEngine::windowFor(uint64_t index) {
  auto [it, inserted] = windows_.try_emplace(index);
  if (!inserted) return &it->second;
  windowsAdded_ = true;
  it->second.index = index;
  // A window created below the watermark (a straggler processor's first
  // buffer) is already complete — its end has been passed.
  if (finished_ || (index + 1) * config_.windowTicks <= watermark_) {
    it->second.complete = true;
    ++windowsCompleted_;
  }
  bool agedOut = false;
  while (windows_.size() > config_.maxWindows) {
    const auto oldest = windows_.begin();
    prunedBelow_ = oldest->first + 1;
    agedOut = agedOut || oldest == it;
    windows_.erase(oldest);
    for (ProcTick& proc : procs_) proc.windowEnd = 0;  // empty range
  }
  // The new window may itself be the oldest: it aged out at once.
  return agedOut ? nullptr : &it->second;
}

void StreamEngine::completeWindows() {
  windowsAdded_ = false;
  nextWindowEnd_ = UINT64_MAX;
  if (config_.windowTicks == 0) return;
  for (auto it = windows_.lower_bound(completedBelow_); it != windows_.end();
       ++it) {
    const uint64_t end = (it->first + 1) * config_.windowTicks;
    if (end > watermark_) {
      nextWindowEnd_ = end;
      break;
    }
    if (!it->second.complete) {
      it->second.complete = true;
      ++windowsCompleted_;
    }
    completedBelow_ = it->first + 1;
  }
}

void StreamEngine::countInWindow(ProcTick& proc, uint32_t processor,
                                 uint64_t tick) {
  if (tick >= proc.windowStart && tick < proc.windowEnd) {
    ++*proc.windowEvents;
    ++*proc.cpuEvents;
    return;
  }
  const uint64_t index = tick / config_.windowTicks;
  Window* w = index < prunedBelow_ ? nullptr : windowFor(index);
  if (w == nullptr) {
    ++lateEvents_;
    return;
  }
  uint64_t& cpuEvents = w->perProcessor[processor];
  ++w->events;
  ++cpuEvents;
  proc.windowStart = index * config_.windowTicks;
  proc.windowEnd = proc.windowStart + config_.windowTicks;
  proc.windowEvents = &w->events;
  proc.cpuEvents = &cpuEvents;
}

void StreamEngine::observe(std::span<const DecodedEvent> events) {
  for (const DecodedEvent& e : events) {
    ++eventsObserved_;
    const uint64_t tick = e.fullTimestamp;
    if (e.processor >= procs_.size()) procs_.resize(e.processor + 1);
    ProcTick& proc = procs_[e.processor];
    // The watermark is the minimum over processors of their last tick; it
    // can change only when a processor appears, or one holding the
    // minimum moves on (after finish() it is recomputed every time).
    bool minMayChange = finished_;
    if (!proc.seen) {
      proc.seen = true;
      ++procsSeen_;
      proc.lastTick = tick;
      minMayChange = true;
    } else if (tick > proc.lastTick) {
      minMayChange = minMayChange || proc.lastTick <= watermark_;
      proc.lastTick = tick;
    }

    if (e.header.major == Major::Monitor) {
      Heartbeat hb;
      if (parseHeartbeat(e, hb)) heartbeats_[e.processor].push_back({tick, hb});
    }
    if (config_.windowTicks != 0) countInWindow(proc, e.processor, tick);

    bool watermarkMoved = false;
    if (minMayChange) {
      uint64_t wm = UINT64_MAX;
      for (const ProcTick& p : procs_) {
        if (p.seen) wm = std::min(wm, p.lastTick);
      }
      watermarkMoved = wm != watermark_;
      watermark_ = wm;
    }
    if (windowsAdded_ || (watermarkMoved && watermark_ >= nextWindowEnd_)) {
      completeWindows();
    }

    const uint64_t bit = TraceMask::bit(e.header.major);
    for (const Route& route : perProcessorFolds_) {
      if ((route.mask & bit) != 0) route.fold->onEvent(e);
    }
  }
}

void StreamEngine::onOrdered(const DecodedEvent& e) {
  const uint64_t bit = TraceMask::bit(e.header.major);
  for (const Route& route : mergedFolds_) {
    if ((route.mask & bit) != 0) route.fold->onEvent(e);
  }
}

void StreamEngine::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& [index, w] : windows_) {
    if (!w.complete) {
      w.complete = true;
      ++windowsCompleted_;
    }
  }
  if (!windows_.empty()) completedBelow_ = windows_.rbegin()->first + 1;
  for (const ProcTick& proc : procs_) {
    if (proc.seen) watermark_ = std::max(watermark_, proc.lastTick);
  }
  for (const auto& fold : folds_) fold->finish();
}

MonitorVars StreamEngine::varsForWindow(const Window& w,
                                        uint64_t cumEvents) const {
  const uint64_t end = (w.index + 1) * config_.windowTicks;
  MonitorVars vars;
  double logged = 0, dropped = 0, retries = 0, slowpath = 0, filler = 0,
         wordsReserved = 0, stale = 0;
  const HeartbeatAt* newest = nullptr;
  uint32_t newestProc = 0;
  for (const auto& [p, hist] : heartbeats_) {
    // Newest heartbeat at or before the window end; per-processor
    // histories are timestamp-ordered, so this is a binary search.
    const auto it = std::upper_bound(
        hist.begin(), hist.end(), end,
        [](uint64_t v, const HeartbeatAt& h) { return v < h.tick; });
    if (it == hist.begin()) continue;
    const HeartbeatAt& h = *(it - 1);
    logged += static_cast<double>(h.hb.eventsLogged);
    dropped += static_cast<double>(h.hb.eventsDropped);
    retries += static_cast<double>(h.hb.reserveRetries);
    slowpath += static_cast<double>(h.hb.slowPathEntries);
    filler += static_cast<double>(h.hb.fillerWords);
    wordsReserved += static_cast<double>(h.hb.wordsReserved);
    stale += static_cast<double>(h.hb.staleCommits);
    // Session-global words come from the newest heartbeat overall;
    // deterministic tie-break on (tick, heartbeatSeq, processor).
    if (newest == nullptr || h.tick > newest->tick ||
        (h.tick == newest->tick &&
         (h.hb.heartbeatSeq > newest->hb.heartbeatSeq ||
          (h.hb.heartbeatSeq == newest->hb.heartbeatSeq && p > newestProc)))) {
      newest = &h;
      newestProc = p;
    }
  }
  vars["logged"] = logged;
  vars["dropped"] = dropped;
  vars["retries"] = retries;
  vars["slowpath"] = slowpath;
  vars["filler_words"] = filler;
  vars["words_reserved"] = wordsReserved;
  vars["stale_commits"] = stale;
  const Heartbeat zero{};
  const Heartbeat& g = newest != nullptr ? newest->hb : zero;
  vars["consumed"] = static_cast<double>(g.consumerBuffers);
  vars["lost"] = static_cast<double>(g.consumerLost);
  vars["mismatches"] = static_cast<double>(g.consumerMismatches);
  vars["sink_dropped"] = static_cast<double>(g.sinkDropped);
  vars["backpressure"] = static_cast<double>(g.sinkBackpressure);
  vars["bytes_written"] = static_cast<double>(g.sinkBytesWritten);
  vars["raw_bytes"] = static_cast<double>(g.sinkRawBytes);
  vars["reclaimed_words"] = static_cast<double>(g.reclaimedWords);
  vars["torn_buffers"] = static_cast<double>(g.tornBuffers);
  vars["window_index"] = static_cast<double>(w.index);
  vars["window_events"] = static_cast<double>(w.events);
  vars["window_seconds"] =
      config_.ticksPerSecond > 0.0
          ? static_cast<double>(config_.windowTicks) / config_.ticksPerSecond
          : 0.0;
  vars["events"] = static_cast<double>(cumEvents);
  vars["processors"] = static_cast<double>(w.perProcessor.size());
  return vars;
}

std::string StreamEngine::snapshotJson(const std::string& tenant) const {
  const std::string name = jsonEscape(tenant);
  std::ostringstream out;

  out << util::strprintf(
      "{\"type\":\"top\",\"tenant\":\"%s\",\"window_ticks\":%llu,"
      "\"ticks_per_second\":%s,\"processors\":%zu,\"events\":%llu,"
      "\"late_events\":%llu,\"windows_completed\":%llu,"
      "\"watermark_tick\":%llu,\"folds\":[",
      name.c_str(), static_cast<unsigned long long>(config_.windowTicks),
      jsonNumber(config_.ticksPerSecond).c_str(), procsSeen_,
      static_cast<unsigned long long>(eventsObserved_),
      static_cast<unsigned long long>(lateEvents_),
      static_cast<unsigned long long>(windowsCompleted_),
      static_cast<unsigned long long>(watermark_));
  for (size_t i = 0; i < folds_.size(); ++i) {
    if (i != 0) out << ',';
    out << folds_[i]->summaryJson();
  }
  out << "]}\n";

  struct MonitorSummary {
    uint64_t windows = 0;
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::vector<MonitorSummary> summaries(monitors_.size());

  uint64_t cum = 0;
  for (const auto& [index, w] : windows_) {
    cum += w.events;
    if (!w.complete) continue;
    out << util::strprintf(
        "{\"type\":\"window\",\"tenant\":\"%s\",\"index\":%llu,"
        "\"start_tick\":%llu,\"end_tick\":%llu,\"events\":%llu,"
        "\"cum_events\":%llu,\"per_cpu\":[",
        name.c_str(), static_cast<unsigned long long>(index),
        static_cast<unsigned long long>(index * config_.windowTicks),
        static_cast<unsigned long long>((index + 1) * config_.windowTicks),
        static_cast<unsigned long long>(w.events),
        static_cast<unsigned long long>(cum));
    bool first = true;
    for (const auto& [p, n] : w.perProcessor) {
      if (!first) out << ',';
      first = false;
      out << util::strprintf("{\"cpu\":%u,\"events\":%llu}", p,
                             static_cast<unsigned long long>(n));
    }
    out << "],\"monitors\":[";
    if (!monitors_.empty()) {
      const MonitorVars vars = varsForWindow(w, cum);
      for (size_t m = 0; m < monitors_.size(); ++m) {
        if (m != 0) out << ',';
        const double v = monitors_[m].expr.eval(vars);
        out << util::strprintf("{\"name\":\"%s\",\"value\":%s}",
                               jsonEscape(monitors_[m].name).c_str(),
                               jsonNumber(v).c_str());
        if (std::isfinite(v)) {
          MonitorSummary& s = summaries[m];
          if (s.windows == 0) {
            s.min = s.max = v;
          } else {
            s.min = std::min(s.min, v);
            s.max = std::max(s.max, v);
          }
          s.last = v;
          ++s.windows;
        }
      }
    }
    out << "]}\n";
  }

  for (size_t m = 0; m < monitors_.size(); ++m) {
    const MonitorSummary& s = summaries[m];
    out << util::strprintf(
        "{\"type\":\"monitor\",\"tenant\":\"%s\",\"name\":\"%s\","
        "\"expr\":\"%s\",\"windows\":%llu,\"last\":%s,\"min\":%s,"
        "\"max\":%s}\n",
        name.c_str(), jsonEscape(monitors_[m].name).c_str(),
        jsonEscape(monitors_[m].source).c_str(),
        static_cast<unsigned long long>(s.windows),
        s.windows != 0 ? jsonNumber(s.last).c_str() : "null",
        s.windows != 0 ? jsonNumber(s.min).c_str() : "null",
        s.windows != 0 ? jsonNumber(s.max).c_str() : "null");
  }
  return out.str();
}

}  // namespace ktrace::analysis::streaming
