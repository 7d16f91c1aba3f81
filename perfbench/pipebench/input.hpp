// The benchmark's one input source: per-processor SDET event streams.
//
// workload::SdetWorkload runs on the ossim machine with the run's seed;
// its decoded trace becomes one event stream per simulated processor.
// Every workload replays these streams (cyclically) through the real
// pipeline, so all four see the same event mix: SDET's major/minor
// classes and payload lengths (4.3 words/event on average).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/decode.hpp"
#include "core/event.hpp"

namespace pipebench {

struct InEvent {
  ktrace::Major major = ktrace::Major::Test;
  uint16_t minor = 0;
  uint16_t words = 0;   // payload words (header excluded)
  uint32_t offset = 0;  // first payload word in SdetStream::payload
};

/// One processor's event stream.
struct SdetStream {
  std::vector<InEvent> events;
  std::vector<uint64_t> payload;

  const InEvent& at(uint64_t i) const { return events[i % events.size()]; }
  std::span<const uint64_t> words(const InEvent& e) const {
    return {payload.data() + e.offset, e.words};
  }
  /// True when `decoded` is the i-th replayed event of this stream.
  bool matches(uint64_t i, const ktrace::DecodedEvent& decoded) const;
};

struct SdetInput {
  std::vector<SdetStream> streams;  // one per simulated processor
  uint64_t totalEvents() const;
  double meanEventWords() const;  // header included
  /// Digest over every stream's event classes and payloads.
  uint64_t digest() const;
};

/// Runs SDET on `processors` simulated processors and returns the
/// streams. Infrastructure events (fillers, anchors) and the simulator's
/// own heartbeats are left out: the replaying logger makes its own.
SdetInput makeSdetInput(uint64_t seed, uint32_t processors);

/// Result of checking one processor's decoded output against its stream.
struct StreamCheck {
  uint64_t events = 0;      // decoded events (fillers/anchors skipped)
  uint64_t mismatches = 0;  // events that differ from the replayed input
  uint64_t undecodable = 0; // records the reader could not decode
};

/// Reads the trace file `basePath` and its rotation successors in order,
/// one record at a time, and compares every decoded event with the
/// stream: event i must be stream.at(i). `expected` events must appear —
/// missing or extra ones count as mismatches.
StreamCheck checkFiles(const std::string& basePath, const SdetStream& stream,
                       uint64_t expected);

/// Dispatches one input event to a logger the way KT_LOG call sites do:
/// a fixed-arity call for 0-8 payload words, the data variant above that.
/// `Log` provides fixed(major, minor, words...) and data(major, minor, span).
template <typename Log>
inline bool dispatchEvent(Log& log, const SdetStream& s, const InEvent& e) {
  const uint64_t* w = s.payload.data() + e.offset;
  switch (e.words) {
    case 0: return log.fixed(e.major, e.minor);
    case 1: return log.fixed(e.major, e.minor, w[0]);
    case 2: return log.fixed(e.major, e.minor, w[0], w[1]);
    case 3: return log.fixed(e.major, e.minor, w[0], w[1], w[2]);
    case 4: return log.fixed(e.major, e.minor, w[0], w[1], w[2], w[3]);
    case 5: return log.fixed(e.major, e.minor, w[0], w[1], w[2], w[3], w[4]);
    case 6:
      return log.fixed(e.major, e.minor, w[0], w[1], w[2], w[3], w[4], w[5]);
    case 7:
      return log.fixed(e.major, e.minor, w[0], w[1], w[2], w[3], w[4], w[5],
                       w[6]);
    case 8:
      return log.fixed(e.major, e.minor, w[0], w[1], w[2], w[3], w[4], w[5],
                       w[6], w[7]);
    default: return log.data(e.major, e.minor, s.words(e));
  }
}

}  // namespace pipebench
