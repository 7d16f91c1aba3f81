#include "core/shm.hpp"

#include <cstring>
#include <stdexcept>

#include "core/flight_recorder.hpp"
#include "util/bits.hpp"

namespace ktrace {

ShmTraceControl ShmTraceControl::create(void* memory, uint32_t processorId,
                                        uint32_t bufferWords, uint32_t numBuffers,
                                        ClockRef clock) {
  checkGeometry(bufferWords, numBuffers, clock);
  // The caller's memory has unknown content, and format() relies on zeros:
  // a never-written lap must read as zeros, never as stale bytes.
  std::memset(memory, 0, bytesFor(bufferWords, numBuffers));
  ShmTraceControl control(format(memory, processorId, bufferWords, numBuffers), clock);
  control.start();
  return control;
}

ShmTraceControl ShmTraceControl::attach(void* memory, ClockRef clock,
                                        size_t availableBytes) {
  if (availableBytes != 0 && availableBytes < sizeof(ShmControlState)) {
    throw std::runtime_error("ShmTraceControl: block too small for a header");
  }
  auto* state = static_cast<ShmControlState*>(memory);
  if (state->magic != ShmControlState::kMagic ||
      state->version != ShmControlState::kVersion) {
    throw std::runtime_error("ShmTraceControl: not an initialized trace block");
  }
  // Geometry checks mirror create()'s, plus the ceilings: a bit-flipped
  // header must produce an error here, never an out-of-bounds region walk.
  if (!util::isPowerOfTwo(state->bufferWords) ||
      !util::isPowerOfTwo(state->numBuffers) ||
      state->bufferWords < 2 * kAnchorWords ||
      state->bufferWords > ShmControlState::kMaxBufferWords ||
      state->numBuffers < 2 ||
      state->numBuffers > ShmControlState::kMaxNumBuffers) {
    throw std::runtime_error("ShmTraceControl: implausible trace-block geometry");
  }
  if (availableBytes != 0 &&
      bytesFor(state->bufferWords, state->numBuffers) > availableBytes) {
    throw std::runtime_error(
        "ShmTraceControl: declared geometry exceeds the mapped block "
        "(truncated or corrupt segment)");
  }
  if (!clock.valid()) throw std::invalid_argument("ShmTraceControl: clock required");
  return ShmTraceControl(state, clock);
}

uint64_t ShmTraceControl::withdrawOvercommit(uint64_t seq,
                                             uint64_t expectedLapWords) noexcept {
  ShmSlotState& slot = bufferState(static_cast<uint32_t>(seq & (numBuffers() - 1)));
  if (slot.lapSeq.load(std::memory_order_acquire) != seq) return 0;
  const uint64_t lapStart = slot.lapStartCommitted.load(std::memory_order_relaxed);
  const uint64_t lapCommitted =
      slot.committed.load(std::memory_order_seq_cst) - lapStart;
  if (lapCommitted <= expectedLapWords) return 0;
  const uint64_t excess = lapCommitted - expectedLapWords;
  slot.committed.fetch_sub(excess, std::memory_order_seq_cst);
  state_->staleCommits.fetch_add(1, std::memory_order_relaxed);
  return excess;
}

std::vector<DecodedEvent> ShmTraceControl::snapshot(size_t maxEvents) const {
  FlightRecorderOptions options;
  options.maxEvents = maxEvents;
  return flightRecorderSnapshot(*this, options);
}

uint64_t ShmTraceControl::drainCompleteBuffers(uint64_t nextSeq, Sink& sink,
                                               bool stopAtIncomplete) const {
  const uint64_t end = currentBufferSeq();
  while (nextSeq < end) {
    // Disk full downstream: stop consuming at this exact boundary. The
    // undrained tail stays parked in the segment (cursor untouched) and
    // drains after the storage emergency clears, instead of being pulled
    // into a sink that can only shed it (DESIGN.md §15).
    if (sink.exhausted()) break;
    BufferRecord record;
    uint64_t lost = 0;
    const LapDrain drained = drainLap(nextSeq, record, lost, {}, stopAtIncomplete);
    if (lost != 0) state_->buffersLost.fetch_add(lost, std::memory_order_relaxed);
    if (drained == LapDrain::Held) break;
    if (drained != LapDrain::Copied) continue;
    if (record.commitMismatch) {
      state_->commitMismatches.fetch_add(1, std::memory_order_relaxed);
    }
    state_->buffersConsumed.fetch_add(1, std::memory_order_relaxed);
    sink.onBuffer(std::move(record));
  }
  return nextSeq;
}

}  // namespace ktrace
