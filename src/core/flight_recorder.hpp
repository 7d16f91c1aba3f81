// Flight-recorder access to a live trace control (paper §4.2).
//
// In flight-recorder mode the per-processor trace region is a circular
// buffer: when it fills, new events overwrite old ones, so the most recent
// activity is always available — e.g. from a debugger after a crash. This
// is the "function call that prints out the last set of trace events",
// with the paper's filtering controls: show only certain event types, and
// bound how many events are displayed.
//
// The snapshot is taken without stopping producers; buffers overwritten
// mid-copy fail header validation and are dropped, exactly the tool-side
// tolerance §3.1 describes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/control.hpp"
#include "core/decode.hpp"
#include "core/registry.hpp"

namespace ktrace {

struct FlightRecorderOptions {
  /// Keep only the most recent maxEvents events (0 = unlimited).
  size_t maxEvents = 64;
  /// Bit i set = include major class i (default: everything).
  uint64_t majorMask = ~0ull;
  bool includeAnchors = false;
};

/// Decodes the laps a ring still holds — the last numBuffers, ending at
/// `index`, the in-flight lap decoded up to its current offset — oldest
/// first, filtered and trimmed per `options`. `lapWords(slot)` yields one
/// slot's words: a live ring copies them with relaxed loads, a crash dump
/// hands out its memory image.
std::vector<DecodedEvent> decodeRecentLaps(
    uint32_t processorId, uint32_t bufferWords, uint32_t numBuffers, uint64_t index,
    const std::function<std::span<const uint64_t>(uint32_t slot)>& lapWords,
    const FlightRecorderOptions& options);

/// Copies and decodes the most recent events from a control's circular
/// region, oldest first.
std::vector<DecodedEvent> flightRecorderSnapshot(const ControlCore& control,
                                                 const FlightRecorderOptions& options = {});

/// Renders a snapshot as the debugger-style listing: one line per event,
/// "seconds  NAME  description".
std::string flightRecorderReport(const TraceControl& control, const Registry& registry,
                                 double ticksPerSecond,
                                 const FlightRecorderOptions& options = {});

}  // namespace ktrace
