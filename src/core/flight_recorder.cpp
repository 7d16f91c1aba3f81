#include "core/flight_recorder.hpp"

#include <sstream>

#include "util/table.hpp"

namespace ktrace {

std::vector<DecodedEvent> decodeRecentLaps(
    uint32_t processorId, uint32_t bufferWords, uint32_t numBuffers, uint64_t index,
    const std::function<std::span<const uint64_t>(uint32_t slot)>& lapWords,
    const FlightRecorderOptions& options) {
  const uint64_t currentSeq = index / bufferWords;
  const uint32_t currentOffset = static_cast<uint32_t>(index % bufferWords);

  // Oldest lap that can still be intact. The slot holding the current lap
  // plus the numBuffers-1 preceding laps are candidates.
  const uint64_t oldestSeq =
      currentSeq >= numBuffers - 1 ? currentSeq - (numBuffers - 1) : 0;

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  DecodeOptions dopt;
  dopt.keepAnchors = options.includeAnchors;
  for (uint64_t seq = oldestSeq; seq <= currentSeq; ++seq) {
    if (seq == currentSeq && currentOffset == 0) break;  // lap not yet begun
    const uint32_t limit = seq == currentSeq ? currentOffset : 0;
    decodeBuffer(lapWords(static_cast<uint32_t>(seq % numBuffers)), seq, processorId,
                 tsBase, events, dopt, limit);
  }

  if (options.majorMask != ~0ull) {
    std::erase_if(events, [&](const DecodedEvent& e) {
      return (options.majorMask & (1ull << static_cast<uint32_t>(e.header.major))) == 0;
    });
  }
  if (options.maxEvents != 0 && events.size() > options.maxEvents) {
    events.erase(events.begin(),
                 events.begin() + static_cast<ptrdiff_t>(events.size() - options.maxEvents));
  }
  return events;
}

std::vector<DecodedEvent> flightRecorderSnapshot(const ControlCore& control,
                                                 const FlightRecorderOptions& options) {
  std::vector<uint64_t> copy(control.bufferWords());
  const auto copyLap = [&](uint32_t slot) {
    control.copySlot(slot, copy.data());
    return std::span<const uint64_t>(copy);
  };
  return decodeRecentLaps(control.processorId(), control.bufferWords(),
                          control.numBuffers(), control.currentIndex(), copyLap, options);
}

std::string flightRecorderReport(const TraceControl& control, const Registry& registry,
                                 double ticksPerSecond,
                                 const FlightRecorderOptions& options) {
  const auto events = flightRecorderSnapshot(control, options);
  std::ostringstream out;
  for (const DecodedEvent& e : events) {
    const double seconds = static_cast<double>(e.fullTimestamp) / ticksPerSecond;
    out << util::strprintf("%14.7f  %-34s %s\n", seconds,
                           registry.eventName(e.header.major, e.header.minor).c_str(),
                           registry.formatEvent(e.asEvent()).c_str());
  }
  return out.str();
}

}  // namespace ktrace
