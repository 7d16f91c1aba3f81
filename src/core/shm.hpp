// User-mapped shared trace buffers (paper §2, goals 2-3).
//
// "To allow fast logging of events from user space, these control
// structures, containing for example the current index, and the trace
// buffers themselves, are mapped into each application's address space."
//
// The userspace analogue: the entire per-processor trace state — the
// atomic reservation index, the per-buffer commit counts, and the ring
// words — lives in one relocatable control block (ShmControlState,
// control.hpp) that can sit in a MAP_SHARED mapping. Any process mapping
// the block logs with the one lockless CAS algorithm, ControlCore — the
// same code TraceControl runs over its private block — so kernel (parent) and
// applications (children) interleave in one unified buffer exactly as in
// K42.
//
// ShmTraceControl is that core over a mapped block, plus what only a
// shared block needs: create/attach validation, the cross-process writer
// fence, the recovery-side overcommit clamp, the lease heartbeat and the
// drain-side counters kept in the block. It holds no state of its own
// besides pointers, the cached geometry and the clock, so each process
// constructs its own accessor over the common mapping.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/control.hpp"
#include "core/decode.hpp"
#include "core/event.hpp"
#include "core/logger.hpp"
#include "core/sink.hpp"
#include "core/timestamp.hpp"

namespace ktrace {

class ShmTraceControl : public ControlCore {
 public:
  /// Initializes a raw block (zeroed or not) and returns an accessor.
  /// `memory` must be 64-byte aligned and at least bytesFor(...) bytes.
  /// Writes the lap-0 anchor. Throws std::invalid_argument on bad
  /// geometry.
  static ShmTraceControl create(void* memory, uint32_t processorId,
                                uint32_t bufferWords, uint32_t numBuffers,
                                ClockRef clock);

  /// Attaches to an already-initialized block (e.g. in another process's
  /// creation order). Validates magic/version/geometry — including the
  /// kMaxBufferWords/kMaxNumBuffers ceilings — and, when `availableBytes`
  /// is nonzero, that the declared geometry fits inside the mapping: a
  /// truncated or header-corrupted segment is rejected with
  /// std::runtime_error instead of reading past the end of the block.
  static ShmTraceControl attach(void* memory, ClockRef clock,
                                size_t availableBytes = 0);

  template <typename... Ws>
    requires(std::convertible_to<Ws, uint64_t> && ...)
  bool logEvent(Major major, uint16_t minor, Ws... words) noexcept {
    return ktrace::logEvent(*this, major, minor, words...);
  }

  bool logEventData(Major major, uint16_t minor,
                    std::span<const uint64_t> data) noexcept {
    return ktrace::logEventData(*this, major, minor, data);
  }

  // --- drain-side counters (drainCompleteBuffers) ------------------------
  uint64_t buffersConsumed() const noexcept {
    return state_->buffersConsumed.load(std::memory_order_relaxed);
  }
  uint64_t buffersLost() const noexcept {
    return state_->buffersLost.load(std::memory_order_relaxed);
  }
  uint64_t commitMismatches() const noexcept {
    return state_->commitMismatches.load(std::memory_order_relaxed);
  }
  const ShmSlotState& slot(uint32_t i) const noexcept { return bufferState(i); }

  // --- producer leases & the cross-process writer fence ----------------
  /// Binds this accessor to a lease heartbeat word (normally a ShmLease's,
  /// living in the same shared segment): every buffer crossing performs
  /// one relaxed fetch_add refreshing it, so a consumer-side watchdog can
  /// tell a logging producer from a stalled or dead one without touching
  /// the fast path otherwise. An RMW because one lease may have several
  /// writers (forked children across the leased processors).
  void bindHeartbeat(std::atomic<uint64_t>* heartbeat) noexcept {
    leaseHeartbeat_ = heartbeat;
  }

  /// Invalidates every accessor attached under the current epoch: their
  /// subsequent reserves fail (counted rejected) and their in-flight
  /// commits are discarded as stale. Used by SessionWatchdog to quiesce a
  /// dead or expired producer's processor before reclaiming its buffers.
  /// seq_cst pairs with commit()'s post-add epoch re-read: a commit racing
  /// this bump is either visible to the fencer's subsequent scan or
  /// withdraws itself — never neither.
  void fenceWriters() noexcept {
    state_->writerEpoch.fetch_add(1, std::memory_order_seq_cst);
  }
  /// Re-reads the fence so *this* accessor logs under the current epoch
  /// (the watchdog calls it after fenceWriters, before reclaiming).
  void refreshEpoch() noexcept {
    localEpoch_ = state_->writerEpoch.load(std::memory_order_acquire);
  }
  uint64_t writerEpoch() const noexcept {
    return state_->writerEpoch.load(std::memory_order_relaxed);
  }

  /// Copies and decodes the most recent events (flight-recorder style).
  std::vector<DecodedEvent> snapshot(size_t maxEvents = 0) const;

  /// Consumes every complete buffer after `nextSeq` into `sink`; returns
  /// the new nextSeq. Call with producers quiesced or accept best-effort
  /// (same contract as Consumer). With `stopAtIncomplete`, draining halts
  /// at the first buffer whose commit count disagrees with its size (§3.1
  /// anomaly) instead of shipping its garbage tail — the SessionWatchdog
  /// uses this so torn buffers are stamped with filler before the sink
  /// ever sees them.
  uint64_t drainCompleteBuffers(uint64_t nextSeq, Sink& sink,
                                bool stopAtIncomplete = false) const;

  /// Recovery-side clamp (call only with writers fenced): if slot `seq`'s
  /// lap commit count exceeds `expectedLapWords` — only possible when a
  /// stale commit raced the fence and its withdrawal was lost to SIGKILL
  /// or is still pending — subtract the excess and count it stale.
  /// Returns the words withdrawn. If a pending withdrawal lands later,
  /// the watchdog's next reclaim pass re-closes the resulting gap.
  uint64_t withdrawOvercommit(uint64_t seq, uint64_t expectedLapWords) noexcept;

  /// Recovery-side repair (call only with writers fenced): `words` words
  /// from `index` were reserved but never committed — the producer died
  /// or was fenced mid-event. Stamps filler over them so the lap decodes
  /// cleanly, then commits them to close the lap's accounting.
  void fillTornTail(uint64_t index, uint32_t words, uint32_t ts32) noexcept {
    fillAndCommit(index, words, ts32);
  }

 private:
  ShmTraceControl(ShmControlState* state, ClockRef clock)
      : ControlCore(state, clock, /*commitCounts=*/true,
                    /*timestampPerAttempt=*/true, /*selfMonitoring=*/true) {}
};

}  // namespace ktrace
