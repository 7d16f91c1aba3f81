// Consumer behaviour: completed buffers reach the sink in order, commit
// mismatches are flagged, and producer overrun is detected (paper §3.1).
#include "core/consumer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "test_support.hpp"

namespace ktrace {
namespace {

using testing::FakeFacility;

// Log events totalling exactly `words` trace words. Works for any words
// that is even, or odd and >= 3 (one 3-word event plus 2-word events).
void fillWords(Facility& facility, uint64_t words) {
  if (words % 2 != 0) {
    ASSERT_GE(words, 3u);
    ASSERT_TRUE(facility.log(Major::Test, 9, uint64_t{1}, uint64_t{2}));
    words -= 3;
  }
  while (words > 0) {
    ASSERT_TRUE(facility.log(Major::Test, 9, uint64_t{1}));
    words -= 2;
  }
}

TEST(Consumer, DrainDeliversCompletedBuffersInSeqOrder) {
  FakeFacility fx(/*numProcessors=*/1, /*bufferWords=*/64, /*buffersPerProcessor=*/8);
  fx.facility.bindCurrentThread(0);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});

  // Fill a bit more than three buffers.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t(i), uint64_t(i), uint64_t(i)));
  }
  consumer.drainNow();
  const auto records = sink.records();
  ASSERT_GE(records.size(), 3u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].processor, 0u);
    EXPECT_FALSE(records[i].commitMismatch) << "buffer " << i;
    EXPECT_EQ(records[i].committedDelta, 64u);
  }
  EXPECT_EQ(consumer.stats().buffersConsumed, records.size());
  EXPECT_EQ(consumer.stats().buffersLost, 0u);
}

TEST(Consumer, CurrentPartialBufferIsNotConsumed) {
  FakeFacility fx(1, 64, 8);
  fx.facility.bindCurrentThread(0);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t{1}));
  consumer.drainNow();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(Consumer, FlushMakesPartialBufferConsumable) {
  FakeFacility fx(1, 64, 8);
  fx.facility.bindCurrentThread(0);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t{1}));
  fx.facility.flushAll();
  consumer.drainNow();
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_FALSE(sink.records()[0].commitMismatch);
}

TEST(Consumer, MultiProcessorBuffersCarryProcessorIds) {
  FakeFacility fx(/*numProcessors=*/3, 64, 8);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  for (uint32_t p = 0; p < 3; ++p) {
    fx.facility.bindCurrentThread(p);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(fx.facility.log(Major::Test, static_cast<uint16_t>(p), uint64_t(i)));
    }
  }
  fx.facility.flushAll();
  consumer.drainNow();
  const auto records = sink.records();
  ASSERT_GE(records.size(), 3u);
  bool sawProc[3] = {false, false, false};
  for (const auto& r : records) {
    ASSERT_LT(r.processor, 3u);
    sawProc[r.processor] = true;
  }
  EXPECT_TRUE(sawProc[0] && sawProc[1] && sawProc[2]);
}

TEST(Consumer, OverrunIsCountedAsLostBuffers) {
  // Tiny ring (2 buffers) with no consumer running: most laps are lost.
  FakeFacility fx(1, 64, /*buffersPerProcessor=*/2);
  fx.facility.bindCurrentThread(0);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t(i), uint64_t(i)));
  }
  fx.facility.flushAll();
  consumer.drainNow();
  const auto stats = consumer.stats();
  EXPECT_GT(stats.buffersLost, 0u);
  EXPECT_GE(stats.buffersConsumed, 1u);
  // Every buffer lap is either consumed or lost.
  const uint64_t totalLaps = fx.facility.control(0).currentBufferSeq();
  EXPECT_EQ(stats.buffersConsumed + stats.buffersLost, totalLaps);
}

TEST(Consumer, AbandonedReservationIsFlaggedAsMismatch) {
  // Simulate the killed-writer of §3.1: reserve then never write/commit.
  FakeFacility fx(1, 64, 8);
  fx.facility.bindCurrentThread(0);
  TraceControl& control = fx.facility.control(0);
  MemorySink sink;
  ConsumerConfig cc;
  cc.commitWait = std::chrono::microseconds(1000);
  Consumer consumer(fx.facility, sink, cc);

  ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t{1}));
  Reservation dead;
  ASSERT_TRUE(control.reserve(4, dead));  // never committed
  ASSERT_TRUE(fx.facility.log(Major::Test, 2, uint64_t{2}));

  fx.facility.flushAll();
  consumer.drainNow();
  ASSERT_GE(sink.count(), 1u);
  EXPECT_TRUE(sink.records()[0].commitMismatch);
  EXPECT_EQ(sink.records()[0].committedDelta, 64u - 4u);
  EXPECT_EQ(consumer.stats().commitMismatches, 1u);
}

TEST(Consumer, BackgroundThreadConsumesWithoutDrain) {
  // Ring large enough (32*64 words) that the producer cannot lap the
  // consumer even if the poller is scheduled late.
  FakeFacility fx(1, 64, 32);
  fx.facility.bindCurrentThread(0);
  MemorySink sink;
  ConsumerConfig cc;
  cc.pollInterval = std::chrono::microseconds(50);
  Consumer consumer(fx.facility, sink, cc);
  consumer.start();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t(i), uint64_t(i)));
  }
  fx.facility.flushAll();
  // The poller should pick everything up shortly.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sink.count() < 9 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  consumer.stop();
  EXPECT_GE(sink.count(), 9u);
  EXPECT_EQ(consumer.stats().buffersLost, 0u);
}

TEST(Consumer, StopIsIdempotentAndStartOnceOnly) {
  FakeFacility fx(1, 64, 4);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  consumer.start();
  consumer.start();  // second start is a no-op
  consumer.stop();
  consumer.stop();
}

TEST(Consumer, ConcurrentStopsDoNotDoubleJoin) {
  // Regression: two threads calling stop() concurrently used to both pass
  // the joinable() check and race into join() on the same worker thread —
  // undefined behaviour that typically terminates. stop() must serialize.
  for (int iter = 0; iter < 25; ++iter) {
    FakeFacility fx(2, 64, 4);
    MemorySink sink;
    ConsumerConfig cc;
    cc.shards = 2;
    Consumer consumer(fx.facility, sink, cc);
    consumer.start();
    std::thread a([&] { consumer.stop(); });
    std::thread b([&] { consumer.stop(); });
    consumer.stop();
    a.join();
    b.join();
  }
}

TEST(Consumer, StaleCommitFromLappedReservationIsDiscarded) {
  // Regression (§3.1 killed/blocked-writer anomaly meets lapping): a
  // writer reserves words, stalls across a full ring lap, then commits.
  // The commit belongs to a lap that no longer exists; adding it to the
  // slot's committed count would make the *new* lap's delta reach
  // bufferWords, so a torn buffer would be consumed as complete with no
  // mismatch flag. commit() must discard it and count it in staleCommits.
  FakeFacility fx(1, 64, /*buffersPerProcessor=*/2);
  fx.facility.bindCurrentThread(0);
  TraceControl& control = fx.facility.control(0);

  // Lap 0 (slot 0): anchor (3 words) + 57 words of events = offset 60,
  // then a 4-word reservation that exactly fills the buffer — the stalled
  // writer. committed stays at 60.
  fillWords(fx.facility, 57);
  Reservation stalled;
  ASSERT_TRUE(control.reserve(4, stalled));
  ASSERT_EQ(control.bufferSeq(stalled.index), 0u);

  // Lap 1 (slot 1): crossing event (anchor 3 + event 2) + 59 words fills
  // it exactly.
  ASSERT_TRUE(fx.facility.log(Major::Test, 9, uint64_t{1}));
  fillWords(fx.facility, 59);

  // Lap 2 recycles slot 0: its lap starts from the snapshot committed=60.
  // Fill to offset 60 (anchor 3 + crossing event 2 + 55), then leave a
  // second exactly-fitting 4-word reservation uncommitted, so the real
  // delta for lap 2 is 60 of 64 — a genuine mismatch.
  ASSERT_TRUE(fx.facility.log(Major::Test, 9, uint64_t{1}));
  fillWords(fx.facility, 55);
  Reservation tail;
  ASSERT_TRUE(control.reserve(4, tail));
  ASSERT_EQ(control.bufferSeq(tail.index), 2u);

  // The lap-0 straggler finally commits. Pre-fix this bled 4 words into
  // lap 2's count, pushing its delta to a clean-looking 64.
  control.commit(stalled.index, 4);
  EXPECT_EQ(control.staleCommits(), 1u);

  // Lap 3: makes lap 2 a completed buffer the consumer will look at.
  ASSERT_TRUE(fx.facility.log(Major::Test, 9, uint64_t{1}));

  MemorySink sink;
  ConsumerConfig cc;
  cc.commitWait = std::chrono::microseconds(0);
  Consumer consumer(fx.facility, sink, cc);
  consumer.drainNow();

  // Laps 0 and 1 were lapped (2-buffer ring), lap 2 is consumable and
  // must be flagged: 60 of 64 words committed, not 64.
  const auto records = sink.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 2u);
  EXPECT_TRUE(records[0].commitMismatch);
  EXPECT_EQ(records[0].committedDelta, 60u);
  const auto stats = consumer.stats();
  EXPECT_EQ(stats.buffersConsumed, 1u);
  EXPECT_EQ(stats.buffersLost, 2u);
  EXPECT_EQ(stats.commitMismatches, 1u);

  // The lap-2 tail committing late (same lap: legitimate, not stale) must
  // not cause the already-written buffer to be re-examined or re-counted.
  control.commit(tail.index, 4);
  EXPECT_EQ(control.staleCommits(), 1u);
  consumer.drainNow();
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_EQ(consumer.stats().buffersConsumed, 1u);
  EXPECT_EQ(consumer.stats().commitMismatches, 1u);
}

TEST(Consumer, LateTailCommitAfterWriteOutIsNotDoubleCounted) {
  // A buffer written out with a mismatch (straggler still holding its
  // reservation) must never be consumed again when the straggler finally
  // commits: nextSeq advances before the record is handed to the sink.
  FakeFacility fx(1, 64, 8);
  fx.facility.bindCurrentThread(0);
  TraceControl& control = fx.facility.control(0);
  MemorySink sink;
  ConsumerConfig cc;
  cc.commitWait = std::chrono::microseconds(1000);
  Consumer consumer(fx.facility, sink, cc);

  ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t{1}));
  Reservation straggler;
  ASSERT_TRUE(control.reserve(4, straggler));
  ASSERT_TRUE(fx.facility.log(Major::Test, 2, uint64_t{2}));
  fx.facility.flushAll();

  consumer.drainNow();
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_TRUE(sink.records()[0].commitMismatch);
  EXPECT_EQ(sink.records()[0].committedDelta, 60u);
  EXPECT_EQ(consumer.stats().buffersConsumed, 1u);
  EXPECT_EQ(consumer.stats().commitMismatches, 1u);

  // The straggler commits after write-out; its lap is still live in the
  // slot (8-buffer ring), so the commit itself is legitimate...
  control.commit(straggler.index, 4);
  EXPECT_EQ(control.staleCommits(), 0u);

  // ...but a second drain must not deliver or count the buffer again.
  consumer.drainNow();
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_EQ(consumer.stats().buffersConsumed, 1u);
  EXPECT_EQ(consumer.stats().commitMismatches, 1u);
}

TEST(Consumer, CommitCountsOffSkipsStragglerWait) {
  // With commit counts off, commit() never adds, so every buffer's delta
  // reads 0 — a missing straggler is indistinguishable from a finished
  // buffer. Waiting commitWait for a count that can never arrive stalled
  // the drain by the full budget per buffer.
  FakeFacility fx(1, 64, 8, /*commitCounts=*/false);
  fx.facility.bindCurrentThread(0);
  MemorySink sink;
  ConsumerConfig cc;
  cc.commitWait = std::chrono::seconds(1);
  Consumer consumer(fx.facility, sink, cc);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Test, 1, i));
    fx.facility.flushAll();
  }

  const auto start = std::chrono::steady_clock::now();
  consumer.drainNow();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(250));
  EXPECT_EQ(consumer.stats().buffersConsumed, 3u);
  EXPECT_EQ(consumer.stats().commitMismatches, 0u);
}

TEST(Consumer, ShardCountIsClampedToProcessors) {
  FakeFacility fx(3, 64, 4);
  MemorySink sink;
  ConsumerConfig cc;
  cc.shards = 0;  // 0 = one shard per processor
  EXPECT_EQ(Consumer(fx.facility, sink, cc).shardCount(), 3u);
  cc.shards = 100;
  EXPECT_EQ(Consumer(fx.facility, sink, cc).shardCount(), 3u);
  cc.shards = 2;
  EXPECT_EQ(Consumer(fx.facility, sink, cc).shardCount(), 2u);
}

TEST(Consumer, ShardedDrainMatchesSerialDrain) {
  // The same deterministic workload drained by one shard and by four
  // shards must produce the same records (order compared per processor).
  auto run = [](uint32_t shards) {
    FakeFacility fx(4, 64, 8);
    for (uint32_t p = 0; p < 4; ++p) {
      fx.facility.bindCurrentThread(p);
      for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(fx.facility.log(Major::Test, static_cast<uint16_t>(p), uint64_t(i)));
      }
    }
    fx.facility.flushAll();
    MemorySink sink;
    ConsumerConfig cc;
    cc.shards = shards;
    Consumer consumer(fx.facility, sink, cc);
    consumer.drainNow();
    auto records = sink.records();
    std::stable_sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
      if (a.processor != b.processor) return a.processor < b.processor;
      return a.seq < b.seq;
    });
    return records;
  };
  const auto serial = run(1);
  const auto sharded = run(4);
  ASSERT_GE(serial.size(), 4u);
  ASSERT_EQ(serial.size(), sharded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].processor, sharded[i].processor);
    EXPECT_EQ(serial[i].seq, sharded[i].seq);
    EXPECT_EQ(serial[i].committedDelta, sharded[i].committedDelta);
    EXPECT_EQ(serial[i].commitMismatch, sharded[i].commitMismatch);
    EXPECT_EQ(serial[i].words, sharded[i].words);
  }
}

}  // namespace
}  // namespace ktrace
