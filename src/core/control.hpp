// Per-processor trace control: the lockless variable-length reservation
// algorithm of paper §3.1 (Figures 1 and 2).
//
// One control per (simulated or physical) processor. All state a logging
// thread touches lives in one control block (ShmControlState), cache-line
// aligned, so logging on different processors never shares cache lines
// (paper §2, "User-mapped per-processor buffers and control structures").
// The block is relocatable: it holds no pointers, so the same layout serves
// the in-process owner (TraceControl, a private mapping) and the user-mapped
// one (ShmTraceControl, a MAP_SHARED block, shm.hpp). ControlCore is the one
// implementation of the algorithm, an accessor over such a block.
//
// The trace memory region is `numBuffers` buffers of `bufferWords` 64-bit
// words each (both powers of two). `index` is a global, monotonically
// increasing word index; the physical slot of word i is i & (regionWords-1),
// and the buffer sequence number of word i is i >> log2(bufferWords).
//
// Reservation (traceReserve): CAS-increment `index` by the event length.
// The timestamp is (re)read on every CAS attempt so that buffer order is
// timestamp order — the paper's monotonicity requirement. If the event
// would cross the buffer boundary, the slow path reserves the remainder of
// the old buffer (filled with filler events), plus a buffer-anchor event,
// plus the caller's event at the start of the next buffer, in a single CAS.
//
// Commit (traceCommit): adds the event length to the per-buffer-slot
// cumulative committed count. A buffer whose committed delta for the
// current lap equals bufferWords is fully written; anything else indicates
// a writer that was preempted, blocked, or killed mid-log (§3.1's anomaly
// detection).
//
// Layout of a block (8-byte aligned throughout):
//   ShmControlState header
//   numBuffers x ShmSlotState
//   bufferWords * numBuffers ring words
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "core/event.hpp"
#include "core/sink.hpp"
#include "core/timestamp.hpp"
#include "util/bits.hpp"

namespace ktrace {

/// A successful reservation: the caller owns words
/// [index, index+lengthWords) and must write the header at `slot`.
struct Reservation {
  uint64_t index = 0;       // global word index of the header word
  uint64_t* slot = nullptr;  // physical location of the header word
  uint32_t ts32 = 0;        // low 32 bits of the timestamp taken at reserve
  uint64_t fullTs = 0;      // the full timestamp (for anchors and tests)
};

struct TraceControlConfig {
  uint32_t processorId = 0;
  uint32_t bufferWords = 1u << 14;  // 128 KiB buffers: the paper's example
  uint32_t numBuffers = 8;
  ClockRef clock{};
  bool commitCounts = true;  // traceCommit is "optional" per the paper
  /// Ablation switch (DESIGN.md §4). true = the paper's algorithm: the
  /// timestamp is re-read on every CAS attempt, so buffer order is
  /// timestamp order. false = read the clock once before the loop; a
  /// losing CAS can then commit a stale timestamp after a later one — the
  /// exact hazard §3.1 warns about ("that process may be interrupted by
  /// another process [that] gets the next slot in the buffer, but obtains
  /// an earlier timestamp").
  bool timestampPerAttempt = true;
  /// Self-monitoring counters on the log hot path (DESIGN.md §8): per-major
  /// event counts and reserved words, read by core::MonitorSnapshot and
  /// embedded in TRACE_MONITOR heartbeats. Costs ~1 ns/event
  /// (bench_selfmon); disable for the absolute minimum hot path.
  bool selfMonitoring = true;
};

/// Per-buffer-slot completion metadata consumed by the drains.
struct ShmSlotState {
  /// Cumulative words committed into this physical slot across all laps.
  std::atomic<uint64_t> committed;
  /// Snapshot of `committed` taken by the crosser entering this slot.
  std::atomic<uint64_t> lapStartCommitted;
  /// The buffer sequence number this lap corresponds to.
  std::atomic<uint64_t> lapSeq;
};

/// The control block's header. Counters are updated with relaxed atomics by
/// every accessor over the block, so any process mapping it sees them.
struct ShmControlState {
  uint32_t magic;
  uint32_t version;
  uint32_t processorId;
  uint32_t bufferWords;   // power of two
  uint32_t numBuffers;    // power of two
  uint32_t reserved;
  /// The cross-process writer fence (DESIGN.md §10). A watchdog reclaiming
  /// this processor bumps writerEpoch; accessors cache the epoch they
  /// attached under, so a producer stalled past its lease deadline — but
  /// still alive — has its late reservations rejected and late commits
  /// discarded as stale instead of corrupting the reclaimed lap. The
  /// cross-process analogue of the per-slot lapSeq guard. Read on every
  /// reserve and commit, written only by a fence: it shares the read-only
  /// geometry's cache line. Nothing fences an in-process block.
  std::atomic<uint64_t> writerEpoch;
  // The contended word gets its own cache line.
  alignas(64) std::atomic<uint64_t> index;
  alignas(64) std::atomic<uint64_t> reserveRetries;
  std::atomic<uint64_t> rejected;
  std::atomic<uint64_t> slowPathEntries;
  std::atomic<uint64_t> fillerWords;
  /// Buffer crossings where the previous event ended exactly on the
  /// boundary, needing no filler (the paper reports 30-40% of events).
  std::atomic<uint64_t> exactFitCrossings;
  /// Commits dropped by the stale-lap guard or the writer fence.
  std::atomic<uint64_t> staleCommits;
  // Drain-side accounting of ShmTraceControl::drainCompleteBuffers, so any
  // process mapping the block sees how much of the stream reached a sink
  // and how much was lost to lapping.
  std::atomic<uint64_t> buffersConsumed;
  std::atomic<uint64_t> buffersLost;
  std::atomic<uint64_t> commitMismatches;
  // Self-monitoring counters (DESIGN.md §8), written only by this
  // processor's loggers: their own cache lines so the hot path never shares
  // a line with the contended index.
  alignas(64) std::atomic<uint64_t> wordsReserved;
  std::atomic<uint64_t> eventsLoggedFor[kMaxMajors];

  static constexpr uint32_t kMagic = 0x4B54524Bu;  // "KTRK"
  /// v5: one layout for the in-process and the mapped owners (adds
  /// reserveRetries, exactFitCrossings and per-major event counts).
  static constexpr uint32_t kVersion = 5;
  /// Geometry ceilings enforced on attach: large enough for any real
  /// configuration (a max-size region is 512 GiB), small enough that a
  /// corrupted header cannot drive bytesFor into overflow or make
  /// validation walk gigabytes of garbage.
  static constexpr uint32_t kMaxBufferWords = 1u << 26;
  static constexpr uint32_t kMaxNumBuffers = 1u << 20;
};

static_assert(std::is_trivially_destructible_v<ShmControlState>);
static_assert(std::is_trivially_destructible_v<ShmSlotState>);

/// What ControlCore::drainLap did with the lap at the caller's cursor.
enum class LapDrain : uint8_t {
  Pending,  // the cursor's lap is still being filled
  Lost,     // the ring recycled the lap before or while it was copied
  Held,     // short commit count and the caller holds incomplete laps
  Copied,   // the lap was copied out; the cursor moved past it
};

/// The Fig. 2 algorithm over one control block. Copyable: it holds only
/// pointers into the block plus the geometry it caches from the header.
class ControlCore {
 public:
  /// Words in a buffer-anchor event: header + full timestamp + buffer seq.
  static constexpr uint32_t kAnchorWords = 3;

  /// Bytes needed for a block with this geometry.
  static size_t bytesFor(uint32_t bufferWords, uint32_t numBuffers) noexcept;

  /// traceReserve (Fig. 2): returns false only if lengthWords is zero or
  /// exceeds maxEventWords(), or the accessor is fenced. Never blocks;
  /// retries CAS until success.
  bool reserve(uint32_t lengthWords, Reservation& out) noexcept;

  /// traceCommit (Fig. 2): publish lengthWords at the buffer slot covering
  /// `index`. The add's ordering pairs with the drain's acquire.
  ///
  /// Stale-lap guard: a writer that reserved words, then stalled long
  /// enough for the ring to lap its buffer, commits into a lap that no
  /// longer exists. Its slot has been recycled (lapSeq moved past the
  /// reservation's seq), so adding the words to `committed` would bleed
  /// into the *current* lap's delta — enough of them and a torn buffer
  /// reads as complete, with no mismatch flagged. Strictly `>` matters:
  /// lapSeq < seq means the crosser entering this reservation's lap has
  /// not stamped lapSeq yet, and the commit legitimately belongs to the
  /// new lap (the crosser's committed-snapshot was taken before its CAS,
  /// so the delta arithmetic still works out). Such commits are dropped
  /// and tallied in staleCommits().
  void commit(uint64_t index, uint32_t lengthWords) noexcept {
    if (!commitCounts_) return;
    // Writer fence: a commit arriving after this processor was reclaimed
    // belongs to a producer the watchdog already gave up on; its words may
    // sit under freshly stamped filler, so counting them would make a torn
    // buffer read as complete.
    if (fenced()) {
      state_->staleCommits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const uint64_t seq = bufferSeq(index);
    ShmSlotState& slot = slots_[seq & slotMask_];
    if (slot.lapSeq.load(std::memory_order_relaxed) > seq) {
      state_->staleCommits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slot.committed.fetch_add(lengthWords, std::memory_order_seq_cst);
    // The fence check above is check-then-act: a fence can land between it
    // and the fetch_add while this writer sits preempted. Re-read the epoch
    // AFTER the add and withdraw the commit if the fence won. seq_cst on
    // the add, this re-read, and the fence's bump rules out the
    // store-buffering outcome where the watchdog's post-fence scan misses
    // the add AND this writer misses the fence: either the words are part
    // of the committed prefix the watchdog preserves, or they are withdrawn
    // here and the stamped filler stays authoritative.
    if (state_->writerEpoch.load(std::memory_order_seq_cst) != localEpoch_) {
      slot.committed.fetch_sub(lengthWords, std::memory_order_seq_cst);
      state_->staleCommits.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Forces the current buffer to complete by reserving its remainder as
  /// filler (plus the next buffer's anchor). No-op when the current buffer
  /// is empty. Used by Facility::flush so partially filled buffers reach
  /// the consumer.
  void flushCurrentBuffer() noexcept;

  /// One step of the buffer drain shared by the Consumer and the shm drain:
  /// examines the lap at cursor `next`. Laps the ring has already recycled
  /// are skipped and added to `lost`. A lap whose commit count is short
  /// gets up to `stragglerWait` for its writers to finish (none when commit
  /// counts are off: the count never moves), then is either left in place
  /// (`holdIncomplete`: Held) or copied out flagged as a mismatch. The copy
  /// uses relaxed loads and is re-validated against the slot's lapSeq,
  /// seqlock style. On Copied and Lost the cursor has moved past the lap.
  LapDrain drainLap(uint64_t& next, BufferRecord& out, uint64_t& lost,
                    std::chrono::microseconds stragglerWait,
                    bool holdIncomplete) const;

  // --- geometry ---
  uint32_t processorId() const noexcept { return state_->processorId; }
  uint32_t bufferWords() const noexcept { return bufferWords_; }
  uint32_t numBuffers() const noexcept { return numBuffers_; }
  uint64_t regionWords() const noexcept { return regionMask_ + 1; }
  /// Largest loggable event in words (header included).
  uint32_t maxEventWords() const noexcept { return maxEventWords_; }

  uint64_t bufferSeq(uint64_t index) const noexcept { return index >> bufferShift_; }
  uint64_t physicalWord(uint64_t index) const noexcept { return index & regionMask_; }

  // --- progress & anomaly counters ---
  uint64_t currentIndex() const noexcept {
    return state_->index.load(std::memory_order_acquire);
  }
  uint64_t currentBufferSeq() const noexcept { return bufferSeq(currentIndex()); }
  uint64_t reserveRetries() const noexcept { return relaxed(state_->reserveRetries); }
  uint64_t slowPathEntries() const noexcept { return relaxed(state_->slowPathEntries); }
  uint64_t rejectedEvents() const noexcept { return relaxed(state_->rejected); }
  uint64_t fillerWordsWritten() const noexcept { return relaxed(state_->fillerWords); }
  uint64_t exactFitCrossings() const noexcept { return relaxed(state_->exactFitCrossings); }
  /// Commits discarded because their reservation's lap had already been
  /// recycled, or their writer was fenced (see commit()).
  uint64_t staleCommits() const noexcept { return relaxed(state_->staleCommits); }

  ShmSlotState& bufferState(uint32_t slot) noexcept { return slots_[slot]; }
  const ShmSlotState& bufferState(uint32_t slot) const noexcept { return slots_[slot]; }

  ClockRef clock() const noexcept { return clock_; }
  void setClock(ClockRef clock) noexcept { clock_ = clock; }
  bool commitCountsEnabled() const noexcept { return commitCounts_; }
  bool selfMonitoringEnabled() const noexcept { return selfMonitoring_; }

  /// True when the block's writer epoch has moved since this accessor
  /// attached (or last refreshed): its writes no longer count.
  bool fenced() const noexcept {
    return state_->writerEpoch.load(std::memory_order_relaxed) != localEpoch_;
  }

  // --- self-monitoring counters (DESIGN.md §8) --------------------------
  /// Called by the logger entry points after a successful commit. The
  /// updates are relaxed load/add/store rather than fetch_add: under the
  /// one-writer-per-processor binding model they are exact, and when
  /// threads share a control they are statistically accurate — the same
  /// trade K42 makes for per-processor counters, keeping the hot-path cost
  /// to ~1 ns instead of two locked RMWs.
  void noteLogged(Major major, uint32_t lengthWords) noexcept {
    if (!selfMonitoring_) return;
    bump(state_->eventsLoggedFor[static_cast<uint32_t>(major)], 1);
    bump(state_->wordsReserved, lengthWords);
  }

  /// Events logged through the logger entry points for one major class.
  uint64_t eventsLoggedFor(Major major) const noexcept {
    return relaxed(state_->eventsLoggedFor[static_cast<uint32_t>(major)]);
  }
  /// Events logged through the logger entry points, all classes.
  uint64_t eventsLogged() const noexcept;
  /// Total words reserved by logger entry points (headers included).
  uint64_t wordsReservedCount() const noexcept { return relaxed(state_->wordsReserved); }

  /// Copies one slot's words into `out` (bufferWords() of them) with
  /// relaxed loads: writers may still be storing into the slot.
  void copySlot(uint32_t slot, uint64_t* out) const noexcept;

  /// Writes a 64-bit word into the trace array. Relaxed atomic store so
  /// concurrent readers of in-flight buffers are race-free; publication
  /// happens via commit().
  void storeWord(uint64_t index, uint64_t value) noexcept {
    std::atomic_ref<uint64_t>(words_[physicalWord(index)])
        .store(value, std::memory_order_relaxed);
  }

  uint64_t loadWord(uint64_t index) const noexcept {
    return std::atomic_ref<uint64_t>(words_[physicalWord(index)])
        .load(std::memory_order_relaxed);
  }

 protected:
  ControlCore(ShmControlState* state, ClockRef clock, bool commitCounts,
              bool timestampPerAttempt, bool selfMonitoring) noexcept;

  /// Throws std::invalid_argument unless the geometry and clock can host
  /// the algorithm: power-of-two sizes, room for two anchors per buffer, at
  /// least two buffers.
  static void checkGeometry(uint32_t bufferWords, uint32_t numBuffers, ClockRef clock);
  /// Lays out a fresh block in `memory`, which must be 64-byte aligned,
  /// bytesFor(...) bytes long and zero-filled: it writes only the header
  /// and the slot array, so the ring's zeros are the allocation's.
  static ShmControlState* format(void* memory, uint32_t processorId,
                                 uint32_t bufferWords, uint32_t numBuffers) noexcept;
  /// Starts lap 0 of slot 0: writes its anchor, so that every buffer lap
  /// begins with an anchor event carrying the full 64-bit timestamp.
  void start() noexcept;
  /// Stamps a chain of filler events over `words` words from `index`, so
  /// the lap still decodes, and commits them.
  void fillAndCommit(uint64_t index, uint32_t words, uint32_t ts32) noexcept;

  ShmControlState* state_;
  /// The writer epoch this accessor attached under (see fenced()).
  uint64_t localEpoch_;
  /// Optional lease heartbeat refreshed at buffer crossings.
  std::atomic<uint64_t>* leaseHeartbeat_ = nullptr;

 private:
  static uint64_t relaxed(const std::atomic<uint64_t>& counter) noexcept {
    return counter.load(std::memory_order_relaxed);
  }
  static void bump(std::atomic<uint64_t>& counter, uint64_t by) noexcept {
    counter.store(counter.load(std::memory_order_relaxed) + by,
                  std::memory_order_relaxed);
  }

  /// The buffer crossing: in one CAS from `oldIndex`, reserve the old
  /// buffer's remainder + the next buffer's anchor + `extraWords`; then
  /// zero-point the new lap, write the fillers and the anchor.
  bool crossInto(uint64_t oldIndex, uint32_t extraWords, Reservation& out) noexcept;
  void writeAnchor(uint64_t index, uint64_t fullTs, uint64_t seq) noexcept;

  // Geometry cached from the header: the hot path shifts and masks.
  ShmSlotState* slots_;
  uint64_t* words_;
  uint64_t regionMask_;
  uint32_t bufferWords_;
  uint32_t numBuffers_;
  uint32_t bufferShift_;
  uint32_t bufferMask_;
  uint32_t slotMask_;
  uint32_t maxEventWords_;
  bool commitCounts_;
  bool timestampPerAttempt_;
  bool selfMonitoring_;
  ClockRef clock_;
};

/// The in-process owner: the core over an anonymous private mapping, so
/// ring memory is committed as laps are written.
class TraceControl : public ControlCore {
 public:
  explicit TraceControl(const TraceControlConfig& config);

  TraceControl(const TraceControl&) = delete;
  TraceControl& operator=(const TraceControl&) = delete;

 private:
  struct BlockFree {
    void operator()(ShmControlState* block) const noexcept;
  };
  using Block = std::unique_ptr<ShmControlState, BlockFree>;
  static Block allocate(const TraceControlConfig& config);
  TraceControl(const TraceControlConfig& config, Block block);

  Block block_;
};

}  // namespace ktrace
