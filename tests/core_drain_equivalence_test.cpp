// The in-process and the mapped trace control run one algorithm (paper §2,
// goals 2-3: the kernel's and the applications' loggers are the same Fig. 2
// reserve/commit). One scripted sequence is replayed against a
// TraceControl drained by the Consumer and against a ShmTraceControl
// drained by drainCompleteBuffers; the two must hand the sink identical
// buffers and keep identical counters.
#include <gtest/gtest.h>

#include <new>

#include "core/consumer.hpp"
#include "core/shm.hpp"
#include "test_support.hpp"

namespace ktrace {
namespace {

using testing::FakeFacility;

constexpr uint32_t kBufferWords = 64;
constexpr uint32_t kNumBuffers = 4;

/// A 64-byte-aligned heap block for a ShmTraceControl.
struct HeapBlock {
  explicit HeapBlock(size_t bytes)
      : memory(::operator new(bytes, std::align_val_t{64})) {}
  ~HeapBlock() { ::operator delete(memory, std::align_val_t{64}); }
  HeapBlock(const HeapBlock&) = delete;
  HeapBlock& operator=(const HeapBlock&) = delete;
  void* memory;
};

template <typename Control>
void logWords(Control& control, uint32_t length, uint64_t payload) {
  Reservation r;
  ASSERT_TRUE(control.reserve(length, r));
  control.storeWord(r.index, EventHeader::encode(r.ts32, length, Major::Test, 1));
  for (uint32_t i = 1; i < length; ++i) control.storeWord(r.index + i, payload + i);
  control.commit(r.index, length);
}

/// Phase 1: laps 0-2. Fast-path events, an exact-fit crossing into lap 1,
/// a filler crossing into lap 2, a reservation in lap 2 that is never
/// committed, rejected events, then a flush that completes lap 2.
template <typename Control>
void phaseOne(Control& control) {
  for (uint64_t i = 0; i < 4; ++i) logWords(control, 5, i);  // offset 23
  logWords(control, 41, 100);  // ends exactly on the boundary
  logWords(control, 5, 200);   // exact-fit crossing: no filler
  for (uint64_t i = 0; i < 7; ++i) logWords(control, 7, 300 + i);  // offset 57
  logWords(control, 10, 400);  // 7 words of filler, then lap 2
  Reservation dead;
  ASSERT_TRUE(control.reserve(4, dead));  // never committed
  logWords(control, 3, 500);
  Reservation rejected;
  EXPECT_FALSE(control.reserve(0, rejected));
  EXPECT_FALSE(control.reserve(control.maxEventWords() + 1, rejected));
  control.flushCurrentBuffer();
}

/// Phase 2: a reservation stalls in lap 3 while the ring laps it, then
/// commits (stale); laps are lost because nothing drains in between.
template <typename Control>
void phaseTwo(Control& control) {
  Reservation stalled;
  ASSERT_TRUE(control.reserve(4, stalled));
  for (uint64_t i = 0; i < 160; ++i) logWords(control, 2, 1000 + i);
  control.commit(stalled.index, 4);
  control.flushCurrentBuffer();
}

void expectSameRecords(const std::vector<BufferRecord>& consumer,
                       const std::vector<BufferRecord>& shm) {
  ASSERT_EQ(consumer.size(), shm.size());
  for (size_t i = 0; i < consumer.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "record " << i);
    EXPECT_EQ(consumer[i].processor, shm[i].processor);
    EXPECT_EQ(consumer[i].seq, shm[i].seq);
    EXPECT_EQ(consumer[i].committedDelta, shm[i].committedDelta);
    EXPECT_EQ(consumer[i].commitMismatch, shm[i].commitMismatch);
    EXPECT_EQ(consumer[i].words, shm[i].words);
  }
}

TEST(DrainEquivalence, ConsumerAndShmDrainSeeTheSameBuffers) {
  FakeFacility fx(/*numProcessors=*/1, kBufferWords, kNumBuffers);
  TraceControl& local = fx.facility.control(0);
  MemorySink consumerSink;
  ConsumerConfig cc;
  cc.commitWait = std::chrono::microseconds(1000);
  Consumer consumer(fx.facility, consumerSink, cc);

  FakeClock shmClock(1, 1);  // seeded as FakeFacility's clock
  HeapBlock block(ShmTraceControl::bytesFor(kBufferWords, kNumBuffers));
  ShmTraceControl mapped = ShmTraceControl::create(block.memory, 0, kBufferWords,
                                                   kNumBuffers, shmClock.ref());
  const auto* state = static_cast<const ShmControlState*>(block.memory);
  MemorySink shmSink;

  phaseOne(local);
  phaseOne(mapped);
  consumer.drainNow();
  uint64_t next = mapped.drainCompleteBuffers(0, shmSink);
  ASSERT_EQ(next, 3u);
  ASSERT_EQ(consumerSink.count(), 3u);
  expectSameRecords(consumerSink.records(), shmSink.records());
  EXPECT_TRUE(shmSink.records()[2].commitMismatch);
  EXPECT_EQ(shmSink.records()[2].committedDelta, kBufferWords - 4);

  phaseTwo(local);
  phaseTwo(mapped);
  consumer.drainNow();
  next = mapped.drainCompleteBuffers(next, shmSink);
  EXPECT_EQ(next, mapped.currentBufferSeq());
  expectSameRecords(consumerSink.records(), shmSink.records());

  EXPECT_EQ(local.currentIndex(), mapped.currentIndex());
  EXPECT_EQ(local.fillerWordsWritten(), mapped.fillerWordsWritten());
  EXPECT_EQ(local.slowPathEntries(),
            state->slowPathEntries.load(std::memory_order_relaxed));
  EXPECT_EQ(local.rejectedEvents(), state->rejected.load(std::memory_order_relaxed));
  EXPECT_EQ(local.rejectedEvents(), 2u);
  EXPECT_EQ(local.staleCommits(), mapped.staleCommits());
  EXPECT_EQ(local.staleCommits(), 1u);
  const auto stats = consumer.stats();
  EXPECT_EQ(stats.buffersLost, mapped.buffersLost());
  EXPECT_GT(stats.buffersLost, 0u);
  EXPECT_EQ(stats.buffersConsumed, mapped.buffersConsumed());
  EXPECT_EQ(stats.commitMismatches, mapped.commitMismatches());
  EXPECT_EQ(stats.buffersConsumed + stats.buffersLost, local.currentBufferSeq());
}

}  // namespace
}  // namespace ktrace
