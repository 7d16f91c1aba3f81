#include "analysis/streaming/folds.hpp"

#include <algorithm>

#include "ossim/events.hpp"
#include "util/table.hpp"

namespace ktrace::analysis::streaming {

namespace {

uint64_t fnvMix(uint64_t h, uint64_t v) noexcept {
  return (h ^ v) * 0x100000001b3ull;
}

uint64_t rowHash(uint64_t lockId, uint64_t pid,
                 const std::vector<uint64_t>& chain) noexcept {
  uint64_t h = fnvMix(fnvMix(0xcbf29ce484222325ull, lockId), pid);
  for (const uint64_t v : chain) h = fnvMix(h, v);
  return h;
}

uint32_t typeKey(Major major, uint16_t minor) noexcept {
  return (static_cast<uint32_t>(major) << 16) | minor;
}

// Fillers and anchors are written by the reservation machinery itself, not
// through a logger entry point, so they are excluded from both sides of
// the heartbeat identity (see analysis/completeness.cpp).
bool isInfrastructure(const DecodedEvent& e) noexcept {
  return e.header.major == Major::Control &&
         (e.header.minor == static_cast<uint16_t>(ControlMinor::Filler) ||
          e.header.minor == static_cast<uint16_t>(ControlMinor::BufferAnchor));
}

}  // namespace

// --- LockContentionFold ------------------------------------------------

size_t LockContentionFold::PairHash::operator()(
    const std::pair<uint64_t, uint64_t>& key) const noexcept {
  return static_cast<size_t>(fnvMix(fnvMix(0xcbf29ce484222325ull, key.first),
                                    key.second));
}

size_t LockContentionFold::rowFor(uint64_t lockId, uint64_t pid,
                                  const std::vector<uint64_t>& chain) {
  const uint64_t h = rowHash(lockId, pid, chain);
  const auto [first, last] = rowIndex_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    const LockStats& row = rows_[it->second];
    if (row.lockId == lockId && row.pid == pid && row.chain == chain) {
      return it->second;
    }
  }
  const size_t index = rows_.size();
  rowIndex_.emplace(h, index);
  LockStats row;
  row.lockId = lockId;
  row.pid = pid;
  row.chain = chain;
  rows_.push_back(std::move(row));
  return index;
}

void LockContentionFold::onEvent(const DecodedEvent& e) {
  if (e.header.major != Major::Lock) return;
  const auto minor = static_cast<ossim::LockMinor>(e.header.minor);
  if (e.data.size() < 2) return;
  const uint64_t lockId = e.data[0];
  const uint64_t pid = e.data[1];
  const auto key = std::make_pair(lockId, pid);

  switch (minor) {
    case ossim::LockMinor::ContendStart: {
      PairState& s = pairs_[key];
      if (s.contending) {
        ++unmatchedContends_;
      } else {
        s.contending = true;
        ++pendingContends_;
      }
      s.startTs = e.fullTimestamp;
      s.chain.clear();
      if (e.data.size() >= 3) {
        const uint64_t chainLen =
            std::min<uint64_t>(e.data[2], e.data.size() - 3);
        s.chain.assign(e.data.begin() + 3,
                       e.data.begin() + 3 + static_cast<ptrdiff_t>(chainLen));
      }
      break;
    }
    case ossim::LockMinor::Acquired: {
      PairState& s = pairs_[key];
      if (s.contending) {
        const uint64_t spins = e.data.size() > 2 ? e.data[2] : 0;
        const size_t index = rowFor(lockId, pid, s.chain);
        LockStats& row = rows_[index];
        const uint64_t wait = e.fullTimestamp - s.startTs;
        row.totalWaitTicks += wait;
        row.maxWaitTicks = std::max(row.maxWaitTicks, wait);
        row.contendedCount += 1;
        row.totalSpins += spins;
        // Only this row's count moved, so the release target is either
        // the old one or this row; ties go to the earlier row.
        if (s.releaseRow == kNoRow) {
          s.releaseRow = index;
        } else {
          const uint64_t best = rows_[s.releaseRow].contendedCount;
          if (row.contendedCount > best ||
              (row.contendedCount == best && index < s.releaseRow)) {
            s.releaseRow = index;
          }
        }
        s.contending = false;
        --pendingContends_;
      }
      s.holding = true;
      s.acquireTs = e.fullTimestamp;
      break;
    }
    case ossim::LockMinor::Release: {
      const auto it = pairs_.find(key);
      if (it != pairs_.end() && it->second.holding) {
        PairState& s = it->second;
        // The release event carries no chain, so fold hold time into the
        // (lock, pid) row with the most contention (display-only detail).
        if (s.releaseRow != kNoRow) {
          LockStats& row = rows_[s.releaseRow];
          row.totalHoldTicks += e.fullTimestamp - s.acquireTs;
          row.releaseCount += 1;
        }
        s.holding = false;
      }
      break;
    }
    default:
      break;
  }
}

void LockContentionFold::finish() {
  unmatchedContends_ += pendingContends_;
  pendingContends_ = 0;
  for (auto& [key, s] : pairs_) s.contending = false;
}

std::vector<LockStats> LockContentionFold::takeRows() noexcept {
  rowIndex_.clear();
  for (auto& [key, s] : pairs_) s.releaseRow = kNoRow;
  return std::move(rows_);
}

std::string LockContentionFold::summaryJson() const {
  uint64_t wait = 0;
  uint64_t count = 0;
  for (const LockStats& row : rows_) {
    wait += row.totalWaitTicks;
    count += row.contendedCount;
  }
  return util::strprintf(
      "{\"name\":\"locks\",\"rows\":%zu,\"contended\":%llu,"
      "\"wait_ticks\":%llu,\"unmatched\":%llu}",
      rows_.size(), static_cast<unsigned long long>(count),
      static_cast<unsigned long long>(wait),
      static_cast<unsigned long long>(unmatchedContends_ + pendingContends_));
}

// --- EventRateFold -----------------------------------------------------

void EventRateFold::onEvent(const DecodedEvent& e) {
  if (numProcessors_ <= e.processor) numProcessors_ = e.processor + 1;
  const auto major = static_cast<size_t>(e.header.major);
  if (major >= byType_.size()) byType_.resize(major + 1);
  std::vector<EventTypeStats*>& minors = byType_[major];
  if (e.header.minor >= minors.size()) minors.resize(e.header.minor + 1u);
  EventTypeStats*& slot = minors[e.header.minor];
  if (slot == nullptr) slot = &stats_[typeKey(e.header.major, e.header.minor)];
  EventTypeStats& s = *slot;
  if (s.count == 0) {
    s.major = e.header.major;
    s.minor = e.header.minor;
    s.firstTick = e.fullTimestamp;
    s.perProcessor.assign(numProcessors_, 0);
  }
  if (s.perProcessor.size() < numProcessors_) s.perProcessor.resize(numProcessors_, 0);
  s.count += 1;
  s.totalWords += e.header.lengthWords;
  s.firstTick = std::min(s.firstTick, e.fullTimestamp);
  s.lastTick = std::max(s.lastTick, e.fullTimestamp);
  s.perProcessor[e.processor] += 1;
  totalEvents_ += 1;
  totalWords_ += e.header.lengthWords;
}

std::string EventRateFold::summaryJson() const {
  return util::strprintf(
      "{\"name\":\"rates\",\"types\":%zu,\"events\":%llu,\"words\":%llu}",
      stats_.size(), static_cast<unsigned long long>(totalEvents_),
      static_cast<unsigned long long>(totalWords_));
}

// --- ProfileFold -------------------------------------------------------

void ProfileFold::onEvent(const DecodedEvent& e) {
  if (e.header.major != Major::Prof ||
      e.header.minor != static_cast<uint16_t>(ossim::ProfMinor::PcSample) ||
      e.data.size() < 2) {
    return;
  }
  samples_[e.data[0]][e.data[1]] += 1;
  ++totalSamples_;
}

std::string ProfileFold::summaryJson() const {
  return util::strprintf("{\"name\":\"profile\",\"pids\":%zu,\"samples\":%llu}",
                         samples_.size(),
                         static_cast<unsigned long long>(totalSamples_));
}

// --- CompletenessFold --------------------------------------------------

void CompletenessFold::closeInterval(ProcState& s, const DecodedEvent& e,
                                     const Heartbeat& hb) {
  // Interval identity: expected logger events vs. events actually decoded
  // in (previous heartbeat, this heartbeat] — see completeness.hpp.
  const uint64_t expected =
      s.hasBeat ? hb.eventsLogged - s.prevHb.eventsLogged : hb.eventsLogged;
  const uint64_t observed = s.hasBeat ? s.cum - s.prevBeatCumBefore : s.cum;
  const uint64_t lost = expected > observed ? expected - observed : 0;
  s.lostEvents += lost;

  if (s.pending.size() == 1) {
    s.pending[0].bounded = true;
    s.pending[0].lostEvents = lost;
  } else if (s.pending.size() > 1) {
    // Several drop windows share one counter delta: the total is exact
    // but cannot be split between them.
    for (CompletenessGap& g : s.pending) {
      g.bounded = false;
      ++s.unboundedGaps;
    }
  } else if (lost > 0) {
    // Loss with no sequence discontinuity: a buffer decoded short
    // (garbled tail) or was partially committed. Synthesize a zero-buffer
    // gap spanning the interval so the loss is still localized in time.
    CompletenessGap g;
    g.processor = s.processor;
    g.beforeSeq = s.hasBeat ? s.prevBeatBufferSeq : s.firstBufferSeq;
    g.afterSeq = e.bufferSeq;
    g.startTick = s.hasBeat ? s.prevBeatTick : s.firstTick;
    g.endTick = e.fullTimestamp;
    g.bounded = true;
    g.lostEvents = lost;
    s.pending.push_back(g);
  }
  s.closed.insert(s.closed.end(), s.pending.begin(), s.pending.end());
  s.pending.clear();

  s.hasBeat = true;
  ++s.beatCount;
  s.prevBeatCumBefore = s.cum;
  s.prevBeatTick = e.fullTimestamp;
  s.prevBeatBufferSeq = e.bufferSeq;
  s.prevHb = hb;
}

void CompletenessFold::onEvent(const DecodedEvent& e) {
  if (e.processor >= byProcessor_.size()) {
    byProcessor_.resize(e.processor + 1u);
  }
  ProcState*& slot = byProcessor_[e.processor];
  if (slot == nullptr) slot = &procs_[e.processor];
  ProcState& s = *slot;
  if (!s.sawFirst) {
    s.sawFirst = true;
    s.processor = e.processor;
    s.firstBufferSeq = e.bufferSeq;
    s.firstTick = e.fullTimestamp;
    if (e.bufferSeq > 0) {
      // Buffers before the first observed one (flight-recorder lap).
      CompletenessGap g;
      g.processor = e.processor;
      g.kind = CompletenessGap::Kind::Head;
      g.afterSeq = e.bufferSeq;
      g.lostBuffers = e.bufferSeq;
      g.endTick = e.fullTimestamp;
      s.pending.push_back(g);
    }
  } else if (e.bufferSeq > s.prevBufferSeq + 1) {
    CompletenessGap g;
    g.processor = e.processor;
    g.beforeSeq = s.prevBufferSeq;
    g.afterSeq = e.bufferSeq;
    g.lostBuffers = e.bufferSeq - s.prevBufferSeq - 1;
    g.startTick = s.prevTick;
    g.endTick = e.fullTimestamp;
    s.pending.push_back(g);
  }
  s.prevBufferSeq = e.bufferSeq;
  s.prevTick = e.fullTimestamp;

  if (isInfrastructure(e)) return;
  if (e.header.major == Major::Monitor) {
    Heartbeat hb;
    if (parseHeartbeat(e, hb)) closeInterval(s, e, hb);
  }
  ++s.cum;  // heartbeats are logger events too; counted after marking
}

void CompletenessFold::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& [p, s] : procs_) {
    ProcessorCompleteness summary;
    summary.processor = p;
    summary.heartbeats = s.beatCount;
    summary.lostEvents = s.lostEvents;
    summary.unboundedGaps = s.unboundedGaps;
    if (s.hasBeat) {
      hasHeartbeats_ = true;
      // Compare like with like: the last heartbeat's counter covers
      // events strictly before it, so clamp "observed" to that window.
      summary.observedEvents = s.prevBeatCumBefore;
      summary.expectedEvents = s.prevHb.eventsLogged;
      summary.droppedAtSource = s.prevHb.eventsDropped;
      summary.consumerLost = s.prevHb.consumerLost;
      // Gaps after the last heartbeat: no closing delta, unbounded.
      for (CompletenessGap& g : s.pending) {
        g.bounded = false;
        g.kind = CompletenessGap::Kind::Tail;
        ++summary.unboundedGaps;
        summary.tailUnverified = true;
      }
    } else {
      summary.observedEvents = s.cum;
      for (CompletenessGap& g : s.pending) {
        g.bounded = false;
        ++summary.unboundedGaps;
      }
    }
    s.closed.insert(s.closed.end(), s.pending.begin(), s.pending.end());
    s.pending.clear();
    for (const CompletenessGap& g : s.closed) {
      // A missing buffer whose loss the heartbeat identity bounds at
      // exactly zero events held nothing but fillers and anchors; nothing
      // observable was lost, so it is not a completeness defect.
      if (g.bounded && g.lostEvents == 0) continue;
      gaps_.push_back(g);
    }
    processors_.push_back(summary);
  }
}

std::string CompletenessFold::summaryJson() const {
  uint64_t lost = 0;
  uint64_t beats = 0;
  size_t gaps = 0;
  for (const auto& [p, s] : procs_) {
    lost += s.lostEvents;
    beats += s.beatCount;
    // Same benign-gap filter as the final report: a bounded gap whose
    // loss the heartbeat identity pins at zero held only fillers and
    // anchors — not a defect, so the live summary must not cry wolf.
    // Pending gaps (no closing heartbeat yet) always count.
    for (const CompletenessGap& g : s.closed) {
      if (g.bounded && g.lostEvents == 0) continue;
      ++gaps;
    }
    gaps += s.pending.size();
  }
  return util::strprintf(
      "{\"name\":\"completeness\",\"heartbeats\":%llu,\"lost_events\":%llu,"
      "\"gaps\":%zu}",
      static_cast<unsigned long long>(beats),
      static_cast<unsigned long long>(lost), gaps);
}

}  // namespace ktrace::analysis::streaming
