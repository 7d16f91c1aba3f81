#include "core/control.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <stdexcept>
#include <thread>

namespace ktrace {

size_t ControlCore::bytesFor(uint32_t bufferWords, uint32_t numBuffers) noexcept {
  return sizeof(ShmControlState) + sizeof(ShmSlotState) * numBuffers +
         static_cast<size_t>(bufferWords) * numBuffers * sizeof(uint64_t);
}

ControlCore::ControlCore(ShmControlState* state, ClockRef clock, bool commitCounts,
                         bool timestampPerAttempt, bool selfMonitoring) noexcept
    : state_(state),
      localEpoch_(state->writerEpoch.load(std::memory_order_acquire)),
      slots_(reinterpret_cast<ShmSlotState*>(reinterpret_cast<char*>(state) +
                                                sizeof(ShmControlState))),
      words_(reinterpret_cast<uint64_t*>(slots_ + state->numBuffers)),
      regionMask_(static_cast<uint64_t>(state->bufferWords) * state->numBuffers - 1),
      bufferWords_(state->bufferWords),
      numBuffers_(state->numBuffers),
      bufferShift_(util::log2Exact(state->bufferWords)),
      bufferMask_(state->bufferWords - 1),
      slotMask_(state->numBuffers - 1),
      // An event must fit in one buffer alongside the buffer's anchor, and
      // in the 10-bit header length field.
      maxEventWords_(std::min<uint32_t>(EventHeader::kMaxWords,
                                        state->bufferWords - kAnchorWords)),
      commitCounts_(commitCounts),
      timestampPerAttempt_(timestampPerAttempt),
      selfMonitoring_(selfMonitoring),
      clock_(clock) {}

void ControlCore::checkGeometry(uint32_t bufferWords, uint32_t numBuffers,
                                ClockRef clock) {
  if (!util::isPowerOfTwo(bufferWords) || !util::isPowerOfTwo(numBuffers)) {
    throw std::invalid_argument("bufferWords and numBuffers must be powers of two");
  }
  if (bufferWords < 2 * kAnchorWords) {
    throw std::invalid_argument("bufferWords too small");
  }
  if (numBuffers < 2) {
    throw std::invalid_argument("need at least two buffers");
  }
  if (!clock.valid()) {
    throw std::invalid_argument("a trace control requires a valid clock");
  }
}

ShmControlState* ControlCore::format(void* memory, uint32_t processorId,
                                     uint32_t bufferWords,
                                     uint32_t numBuffers) noexcept {
  auto* state = new (memory) ShmControlState{};
  state->magic = ShmControlState::kMagic;
  state->version = ShmControlState::kVersion;
  state->processorId = processorId;
  state->bufferWords = bufferWords;
  state->numBuffers = numBuffers;
  auto* slots = reinterpret_cast<ShmSlotState*>(state + 1);
  for (uint32_t i = 0; i < numBuffers; ++i) new (&slots[i]) ShmSlotState{};
  return state;
}

void ControlCore::start() noexcept {
  writeAnchor(0, clock_(), 0);
  state_->index.store(kAnchorWords, std::memory_order_release);
  commit(0, kAnchorWords);
}

bool ControlCore::reserve(uint32_t lengthWords, Reservation& out) noexcept {
  if (lengthWords == 0 || lengthWords > maxEventWords_) {
    state_->rejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  uint64_t ts = 0;
  bool haveTs = false;
  for (;;) {
    // Fenced accessor: the watchdog reclaimed this processor out from
    // under us. Refusing the reservation (rather than racing the
    // reclamation CAS) is what lets reclamation terminate — a fenced
    // producer stops moving the index, so the watchdog's
    // flushCurrentBuffer converges. Checked per attempt so a producer
    // preempted inside this loop cannot keep CASing the index after the
    // fence (the narrow remainder — a CAS already in flight — is absorbed
    // by the watchdog's per-poll re-reclaim).
    if (fenced()) {
      state_->rejected.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    uint64_t oldIndex = state_->index.load(std::memory_order_relaxed);
    const uint64_t offsetInBuffer = oldIndex & bufferMask_;
    // offset 0 means the previous event ended exactly on the boundary (the
    // paper observes 30-40% of events do): the new lap still needs its
    // anchor and commit zero-point, so it also takes the slow path — with
    // zero filler words.
    if (offsetInBuffer == 0 || offsetInBuffer + lengthWords > bufferWords_) {
      // Fig. 2's traceReserveSlow: cross into the next buffer.
      state_->slowPathEntries.fetch_add(1, std::memory_order_relaxed);
      if (crossInto(oldIndex, lengthWords, out)) {
        if (offsetInBuffer == 0) {
          state_->exactFitCrossings.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
      }
      state_->reserveRetries.fetch_add(1, std::memory_order_relaxed);
      continue;  // lost the crossing race; retry from scratch
    }
    // The timestamp is taken inside the CAS loop: a winner with a stale
    // timestamp would break the buffer's monotonic timestamp order (§3.1).
    // (timestampPerAttempt=false is the DESIGN.md §4 ablation of exactly
    // that rule.)
    if (timestampPerAttempt_ || !haveTs) {
      ts = clock_();
      haveTs = true;
    }
    if (state_->index.compare_exchange_weak(oldIndex, oldIndex + lengthWords,
                                            std::memory_order_relaxed,
                                            std::memory_order_relaxed)) {
      out.index = oldIndex;
      out.slot = words_ + physicalWord(oldIndex);
      out.ts32 = static_cast<uint32_t>(ts);
      out.fullTs = ts;
      return true;
    }
    state_->reserveRetries.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ControlCore::crossInto(uint64_t oldIndex, uint32_t extraWords,
                            Reservation& out) noexcept {
  const uint64_t offsetInBuffer = oldIndex & bufferMask_;
  const uint64_t remainder = offsetInBuffer == 0 ? 0 : bufferWords_ - offsetInBuffer;
  const uint64_t newBufferStart = oldIndex + remainder;
  const uint64_t newSeq = bufferSeq(newBufferStart);
  ShmSlotState& newSlot = slots_[newSeq & slotMask_];

  // Snapshot the new slot's committed count *before* publishing the new
  // index: no thread can commit into the new lap until the CAS succeeds.
  // (A writer still holding a reservation from a previous lap of this slot
  // can violate this; that is exactly the long-blocked-writer anomaly the
  // per-buffer counts exist to detect, §3.1.)
  const uint64_t committedSnapshot = newSlot.committed.load(std::memory_order_relaxed);
  const uint64_t ts = clock_();
  const uint64_t newIndex = newBufferStart + kAnchorWords + extraWords;
  if (!state_->index.compare_exchange_strong(oldIndex, newIndex,
                                             std::memory_order_relaxed,
                                             std::memory_order_relaxed)) {
    return false;
  }

  // We own [oldIndex, newIndex). Record the new lap's zero point, pad the
  // old buffer with fillers, and write the new buffer's anchor.
  newSlot.lapStartCommitted.store(committedSnapshot, std::memory_order_relaxed);
  newSlot.lapSeq.store(newSeq, std::memory_order_release);
  if (leaseHeartbeat_ != nullptr) {
    // Lease liveness: one relaxed fetch_add per buffer crossing, the whole
    // fast-path cost of the session watchdog. An RMW, not load+store: one
    // lease may have several writers (forked children, one per processor)
    // crossing concurrently, and a lost increment could rewind the word to
    // a value the watchdog already recorded.
    leaseHeartbeat_->fetch_add(1, std::memory_order_relaxed);
  }
  if (remainder > 0) {
    state_->fillerWords.fetch_add(remainder, std::memory_order_relaxed);
    fillAndCommit(oldIndex, static_cast<uint32_t>(remainder), static_cast<uint32_t>(ts));
  }
  writeAnchor(newBufferStart, ts, newSeq);
  commit(newBufferStart, kAnchorWords);

  out.index = newBufferStart + kAnchorWords;
  out.slot = words_ + physicalWord(out.index);
  out.ts32 = static_cast<uint32_t>(ts);
  out.fullTs = ts;
  return true;
}

void ControlCore::flushCurrentBuffer() noexcept {
  for (;;) {
    const uint64_t oldIndex = state_->index.load(std::memory_order_relaxed);
    if ((oldIndex & bufferMask_) == 0) return;  // buffer is empty: nothing to flush
    Reservation unused;
    if (crossInto(oldIndex, 0, unused)) return;
  }
}

void ControlCore::fillAndCommit(uint64_t index, uint32_t words, uint32_t ts32) noexcept {
  // A filler is a header-only event whose length covers dead space: a
  // buffer's unusable tail (§3.2) or a torn reservation. The 10-bit length
  // field caps one filler at 1023 words, so large spans become chains of
  // maximal fillers.
  uint64_t at = index;
  for (uint32_t left = words; left > 0;) {
    const uint32_t len = std::min(left, EventHeader::kMaxWords);
    storeWord(at, EventHeader::encode(ts32, len, Major::Control,
                                      static_cast<uint16_t>(ControlMinor::Filler)));
    at += len;
    left -= len;
  }
  commit(index, words);
}

void ControlCore::writeAnchor(uint64_t index, uint64_t fullTs, uint64_t seq) noexcept {
  storeWord(index, EventHeader::encode(static_cast<uint32_t>(fullTs), kAnchorWords,
                                       Major::Control,
                                       static_cast<uint16_t>(ControlMinor::BufferAnchor)));
  storeWord(index + 1, fullTs);
  storeWord(index + 2, seq);
}

void ControlCore::copySlot(uint32_t slot, uint64_t* out) const noexcept {
  const uint64_t base = static_cast<uint64_t>(slot) << bufferShift_;
  for (uint32_t i = 0; i < bufferWords_; ++i) out[i] = loadWord(base + i);
}

uint64_t ControlCore::eventsLogged() const noexcept {
  uint64_t total = 0;
  for (const auto& count : state_->eventsLoggedFor) total += relaxed(count);
  return total;
}

LapDrain ControlCore::drainLap(uint64_t& next, BufferRecord& out, uint64_t& lost,
                               std::chrono::microseconds stragglerWait,
                               bool holdIncomplete) const {
  const uint64_t currentSeq = currentBufferSeq();
  if (next >= currentSeq) return LapDrain::Pending;  // still being filled
  // Only the most recent numBuffers-1 completed laps can still be intact
  // (the current lap occupies one slot).
  if (currentSeq - next >= numBuffers_) {
    const uint64_t oldestSafe = currentSeq - numBuffers_ + 1;
    lost += oldestSafe - next;
    next = oldestSafe;
  }
  const uint64_t seq = next;
  const ShmSlotState& state = slots_[seq & slotMask_];
  if (state.lapSeq.load(std::memory_order_acquire) != seq) {
    ++lost;  // the slot was already recycled for a newer lap
    next = seq + 1;
    return LapDrain::Lost;
  }

  // Wait (bounded) for stragglers to commit; pairs with commit()'s add.
  const uint64_t lapStart = state.lapStartCommitted.load(std::memory_order_relaxed);
  uint64_t delta = state.committed.load(std::memory_order_acquire) - lapStart;
  if (commitCounts_ && delta < bufferWords_ && stragglerWait.count() > 0) {
    const auto deadline = std::chrono::steady_clock::now() + stragglerWait;
    while (delta < bufferWords_ && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
      delta = state.committed.load(std::memory_order_acquire) - lapStart;
    }
  }
  const bool mismatch = commitCounts_ && delta != bufferWords_;
  if (holdIncomplete && mismatch) return LapDrain::Held;

  out.processor = processorId();
  out.seq = seq;
  out.committedDelta = delta;
  out.commitMismatch = mismatch;
  out.words.resize(bufferWords_);
  copySlot(static_cast<uint32_t>(seq & slotMask_), out.words.data());
  // Advance past this lap unconditionally: once copied out (even with a
  // mismatch flagged), the buffer is never re-examined, so a straggler
  // committing the tail just after write-out cannot make it be consumed —
  // and counted — twice.
  next = seq + 1;
  // Seqlock-style validation: if the lap changed under us, the copy is torn.
  if (state.lapSeq.load(std::memory_order_acquire) != seq) {
    ++lost;
    return LapDrain::Lost;
  }
  return LapDrain::Copied;
}

TraceControl::TraceControl(const TraceControlConfig& config)
    : TraceControl(config, allocate(config)) {}

TraceControl::TraceControl(const TraceControlConfig& config, Block block)
    : ControlCore(block.get(), config.clock, config.commitCounts,
                  config.timestampPerAttempt, config.selfMonitoring),
      block_(std::move(block)) {
  start();
}

TraceControl::Block TraceControl::allocate(const TraceControlConfig& config) {
  checkGeometry(config.bufferWords, config.numBuffers, config.clock);
  // Anonymous private pages arrive zero-filled on first touch, which is all
  // format() needs: a ring page is committed by the first lap that writes
  // it, and a reader of an untouched lap maps the kernel's zero page.
  const size_t bytes = bytesFor(config.bufferWords, config.numBuffers);
  void* memory = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) throw std::bad_alloc();
  // Base pages only: a transparent huge page would commit 2 MiB of ring on
  // the first write into it.
  ::madvise(memory, bytes, MADV_NOHUGEPAGE);
  return Block(format(memory, config.processorId, config.bufferWords, config.numBuffers));
}

void TraceControl::BlockFree::operator()(ShmControlState* block) const noexcept {
  ::munmap(block, bytesFor(block->bufferWords, block->numBuffers));
}

}  // namespace ktrace
