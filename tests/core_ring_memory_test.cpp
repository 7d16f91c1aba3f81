// Ring memory is committed by the laps that write it (DESIGN.md §2): a
// control block's zeros come from its allocation, so building a control or
// a Facility costs its header and slots, and reading never-written laps —
// snapshots, crash dumps, word loads — maps the kernel's zero page and
// commits nothing.
#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "core/crash_dump.hpp"
#include "core/facility.hpp"
#include "core/flight_recorder.hpp"
#include "core/logger.hpp"
#include "core/timestamp.hpp"

namespace ktrace {
namespace {

constexpr uint32_t kBufferWords = 1u << 14;  // 128 KiB buffers
constexpr uint32_t kNumBuffers = 256;        // a 32 MiB ring
constexpr size_t kMiB = size_t{1} << 20;
constexpr size_t kRssBudget = 4 * kMiB;

size_t pageSize() { return static_cast<size_t>(::sysconf(_SC_PAGESIZE)); }

/// Resident set of this process, from /proc/self/statm.
size_t rssBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t totalPages = 0;
  size_t residentPages = 0;
  statm >> totalPages >> residentPages;
  return residentPages * pageSize();
}

/// Pages of a control's block (header, slots and ring) that mincore reports
/// resident. The block starts at the header, right before slot 0.
size_t residentBlockPages(const ControlCore& control, size_t& totalPages) {
  const auto* begin = reinterpret_cast<const char*>(&control.bufferState(0)) -
                      sizeof(ShmControlState);
  const size_t page = pageSize();
  const auto beginAddr = reinterpret_cast<uintptr_t>(begin);
  const uintptr_t first = beginAddr & ~(page - 1);
  const uintptr_t end =
      beginAddr + ControlCore::bytesFor(control.bufferWords(), control.numBuffers());
  totalPages = (end - first + page - 1) / page;
  std::vector<unsigned char> vec(totalPages);
  if (::mincore(reinterpret_cast<void*>(first), end - first, vec.data()) != 0) {
    ADD_FAILURE() << "mincore failed";
    return totalPages;
  }
  size_t resident = 0;
  for (unsigned char v : vec) resident += v & 1u;
  return resident;
}

/// RSS growth since `before`, clamped at zero.
size_t growth(size_t before) {
  const size_t now = rssBytes();
  return now > before ? now - before : 0;
}

TEST(RingMemory, UnusedRingPagesAreNeverCommitted) {
  FakeClock clock(1000, 1);
  TraceControlConfig cfg;
  cfg.bufferWords = kBufferWords;
  cfg.numBuffers = kNumBuffers;
  cfg.clock = clock.ref();
  TraceControl control(cfg);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(logEvent(control, Major::Test, 1, i, i + 1));
  }
  size_t totalPages = 0;
  const size_t resident = residentBlockPages(control, totalPages);
  EXPECT_GT(totalPages, 8192u);
  EXPECT_LE(resident, 8u) << "of " << totalPages << " block pages";

  // Every lap but the first has never been written. It must read as zeros
  // (a torn first lap then decodes as garbled, never as stale bytes), and
  // reading it must commit nothing.
  const size_t before = rssBytes();
  uint64_t nonzero = 0;
  for (uint64_t i = kBufferWords; i < control.regionWords(); ++i) {
    nonzero += control.loadWord(i) != 0;
  }
  EXPECT_EQ(nonzero, 0u);
  EXPECT_LT(growth(before), kRssBudget) << "reading zeros committed ring pages";
}

TEST(RingMemory, FacilityCostsWhatItLogs) {
  FakeClock clock(1000, 1);
  FacilityConfig cfg;
  cfg.numProcessors = 4;
  cfg.bufferWords = kBufferWords;
  cfg.buffersPerProcessor = kNumBuffers;
  cfg.clockKind = ClockKind::Fake;
  cfg.clockOverride = clock.ref();
  cfg.initialMask = ~0ull;
  const size_t before = rssBytes();
  Facility facility(cfg);
  for (uint32_t p = 0; p < facility.numProcessors(); ++p) {
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(facility.logOn(p, Major::Test, 1, i));
    }
  }
  EXPECT_LT(growth(before), kRssBudget)
      << "a 4 x 32 MiB facility grew RSS by " << growth(before) / kMiB << " MiB";

  // A snapshot decodes the laps written so far; a crash dump copies every
  // ring word, and the never-written laps it reads are the kernel's zero
  // page.
  FlightRecorderOptions options;
  options.maxEvents = 0;
  for (uint32_t p = 0; p < facility.numProcessors(); ++p) {
    EXPECT_EQ(flightRecorderSnapshot(facility.control(p), options).size(), 10u) << p;
  }
  EXPECT_LT(growth(before), kRssBudget) << "flight-recorder snapshot";

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ring_memory_" + std::to_string(::getpid()) + ".k42dump"))
          .string();
  ASSERT_TRUE(writeCrashDump(facility, path));
  std::filesystem::remove(path);
  EXPECT_LT(growth(before), kRssBudget) << "crash dump";
}

}  // namespace
}  // namespace ktrace
