// Facility-level behaviour: thread binding, mask-gated logging entry
// points, the process-wide instance used by the KT_LOG macros, flushing,
// and configuration validation.
#include "core/facility.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <new>
#include <thread>

#include "test_support.hpp"

namespace ktrace {
namespace {

using testing::FakeFacility;

TEST(Facility, ValidatesConfig) {
  FacilityConfig cfg;
  cfg.numProcessors = 0;
  EXPECT_THROW(Facility f(cfg), std::invalid_argument);
}

TEST(Facility, InitialMaskIsRespected) {
  FakeClock clock;
  FacilityConfig cfg;
  cfg.clockKind = ClockKind::Fake;
  cfg.clockOverride = clock.ref();
  cfg.initialMask = TraceMask::bit(Major::Io);
  Facility facility(cfg);
  EXPECT_TRUE(facility.mask().isEnabled(Major::Io));
  EXPECT_FALSE(facility.mask().isEnabled(Major::Mem));
}

TEST(Facility, UnboundThreadCannotLog) {
  FakeFacility fx(2);
  EXPECT_EQ(fx.facility.currentControl(), nullptr);
  EXPECT_EQ(fx.facility.currentProcessor(), fx.facility.numProcessors());
  EXPECT_FALSE(fx.facility.log(Major::Test, 1, uint64_t{1}));
}

TEST(Facility, BindUnbindRoundTrip) {
  FakeFacility fx(2);
  fx.facility.bindCurrentThread(1);
  EXPECT_EQ(fx.facility.currentProcessor(), 1u);
  EXPECT_EQ(fx.facility.currentControl(), &fx.facility.control(1));
  EXPECT_TRUE(fx.facility.log(Major::Test, 1, uint64_t{1}));
  fx.facility.unbindCurrentThread();
  EXPECT_EQ(fx.facility.currentControl(), nullptr);
}

TEST(Facility, BindingIsPerThread) {
  FakeFacility fx(2);
  fx.facility.bindCurrentThread(0);
  std::thread other([&] {
    EXPECT_EQ(fx.facility.currentControl(), nullptr);  // not inherited
    fx.facility.bindCurrentThread(1);
    EXPECT_EQ(fx.facility.currentProcessor(), 1u);
  });
  other.join();
  EXPECT_EQ(fx.facility.currentProcessor(), 0u);  // unaffected
}

TEST(Facility, BindingIsPerFacility) {
  FakeFacility a(1);
  FakeFacility b(1);
  a.facility.bindCurrentThread(0);
  EXPECT_NE(a.facility.currentControl(), nullptr);
  EXPECT_EQ(b.facility.currentControl(), nullptr);
  b.facility.bindCurrentThread(0);
  EXPECT_EQ(a.facility.currentControl(), nullptr);  // rebound elsewhere
}

TEST(Facility, MaskGatesEveryEntryPoint) {
  FakeFacility fx(1);
  fx.facility.bindCurrentThread(0);
  fx.facility.mask().disableAll();
  const uint64_t data[] = {1};
  EXPECT_FALSE(fx.facility.log(Major::Test, 1, uint64_t{1}));
  EXPECT_FALSE(fx.facility.logOn(0, Major::Test, 1, uint64_t{1}));
  EXPECT_FALSE(fx.facility.logData(Major::Test, 1, data));
  EXPECT_FALSE(fx.facility.logString(Major::Test, 1, "x"));
  fx.facility.mask().enable(Major::Test);
  EXPECT_TRUE(fx.facility.log(Major::Test, 1, uint64_t{1}));
  EXPECT_TRUE(fx.facility.logOn(0, Major::Test, 1, uint64_t{1}));
  EXPECT_TRUE(fx.facility.logData(Major::Test, 1, data));
  EXPECT_TRUE(fx.facility.logString(Major::Test, 1, "x"));
}

TEST(Facility, LogOnTargetsExplicitProcessor) {
  FakeFacility fx(3);
  ASSERT_TRUE(fx.facility.logOn(2, Major::Test, 9, uint64_t{77}));
  EXPECT_EQ(fx.facility.control(2).currentIndex(),
            TraceControl::kAnchorWords + 2);
  EXPECT_EQ(fx.facility.control(0).currentIndex(), TraceControl::kAnchorWords);
}

TEST(Facility, GlobalInstanceAndMacros) {
  FakeFacility fx(1);
  fx.facility.bindCurrentThread(0);
  EXPECT_EQ(Facility::current(), nullptr);
  Facility::setCurrent(&fx.facility);
  EXPECT_EQ(Facility::current(), &fx.facility);

  const uint64_t before = fx.facility.control(0).currentIndex();
  KT_LOG(Major::App, 5, uint64_t{1}, uint64_t{2});
  KT_LOG_STRING(Major::App, 6, "hello");
  EXPECT_GT(fx.facility.control(0).currentIndex(), before);

  fx.facility.mask().disableAll();
  const uint64_t mid = fx.facility.control(0).currentIndex();
  KT_LOG(Major::App, 5, uint64_t{3});
  EXPECT_EQ(fx.facility.control(0).currentIndex(), mid);

  Facility::setCurrent(nullptr);
  KT_LOG(Major::App, 5, uint64_t{4});  // no facility: must be harmless
  EXPECT_EQ(fx.facility.control(0).currentIndex(), mid);
}

TEST(Facility, DestructorClearsGlobalAndBinding) {
  {
    FakeFacility fx(1);
    fx.facility.bindCurrentThread(0);
    Facility::setCurrent(&fx.facility);
  }
  EXPECT_EQ(Facility::current(), nullptr);
}

TEST(Facility, StaleBindingDoesNotSurviveAddressReuse) {
  // Thread T binds to facility A. A is destroyed and B is built in the same
  // storage: T's binding named A, so B must not hand T A's freed control.
  FakeClock clock(1, 1);
  FacilityConfig cfg;
  cfg.clockKind = ClockKind::Fake;
  cfg.clockOverride = clock.ref();
  cfg.bufferWords = 64;
  cfg.buffersPerProcessor = 4;
  alignas(Facility) unsigned char storage[sizeof(Facility)];
  auto* a = new (storage) Facility(cfg);

  std::atomic<Facility*> live{a};
  std::atomic<bool> bound{false};
  std::atomic<bool> rebuilt{false};
  const TraceControl* seenByT = nullptr;
  std::thread t([&] {
    live.load()->bindCurrentThread(0);
    bound.store(true);
    while (!rebuilt.load()) std::this_thread::yield();
    seenByT = live.load()->currentControl();
  });
  while (!bound.load()) std::this_thread::yield();
  a->~Facility();
  auto* b = new (storage) Facility(cfg);
  ASSERT_EQ(static_cast<void*>(b), static_cast<void*>(a));
  live.store(b);
  rebuilt.store(true);
  t.join();
  EXPECT_EQ(seenByT, nullptr);
  b->~Facility();
}

TEST(Facility, FlushAllCompletesEveryProcessor) {
  FakeFacility fx(3, 64, 8);
  for (uint32_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(fx.facility.logOn(p, Major::Test, 0, uint64_t{p}));
  }
  fx.facility.flushAll();
  for (uint32_t p = 0; p < 3; ++p) {
    EXPECT_GE(fx.facility.control(p).currentBufferSeq(), 1u) << p;
  }
}

TEST(Facility, PerProcessorClockOverride) {
  FakeFacility fx(2);
  VirtualClock special(5000);
  fx.facility.setProcessorClock(1, special.ref());
  Reservation r;
  ASSERT_TRUE(fx.facility.control(1).reserve(1, r));
  EXPECT_EQ(r.fullTs, 5000u);
  // Processor 0 still uses the original FakeClock (small values).
  ASSERT_TRUE(fx.facility.control(0).reserve(1, r));
  EXPECT_LT(r.fullTs, 5000u);
}

}  // namespace
}  // namespace ktrace
