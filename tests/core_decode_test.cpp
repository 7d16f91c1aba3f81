// Buffer decoding: filler skipping, anchor re-basing, timestamp unwrap,
// garbled-header resynchronization (paper §3.1-§3.2).
#include "core/decode.hpp"

#include <gtest/gtest.h>

namespace ktrace {
namespace {

constexpr uint16_t kFiller = static_cast<uint16_t>(ControlMinor::Filler);
constexpr uint16_t kAnchor = static_cast<uint16_t>(ControlMinor::BufferAnchor);

std::vector<uint64_t> makeBuffer(uint32_t words) { return std::vector<uint64_t>(words, 0); }

void putAnchor(std::vector<uint64_t>& buf, uint32_t at, uint64_t fullTs, uint64_t seq) {
  buf[at] = EventHeader::encode(static_cast<uint32_t>(fullTs), 3, Major::Control, kAnchor);
  buf[at + 1] = fullTs;
  buf[at + 2] = seq;
}

uint32_t putEvent(std::vector<uint64_t>& buf, uint32_t at, uint32_t ts, Major major,
                  uint16_t minor, std::initializer_list<uint64_t> data) {
  buf[at] = EventHeader::encode(ts, 1 + static_cast<uint32_t>(data.size()), major, minor);
  uint32_t i = at + 1;
  for (uint64_t w : data) buf[i++] = w;
  return i;
}

TEST(Decode, SkipsFillersByDefault) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 100, 0);
  uint32_t at = putEvent(buf, 3, 101, Major::Test, 1, {7});
  buf[at] = EventHeader::encode(102, 64 - at, Major::Control, kFiller);

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  const DecodeStats stats = decodeBuffer(buf, 0, 2, tsBase, events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(stats.fillers, 1u);
  EXPECT_EQ(stats.fillerWords, 64u - at);
  EXPECT_EQ(events[0].processor, 2u);
  EXPECT_EQ(events[0].header.minor, 1u);
  EXPECT_EQ(events[0].fullTimestamp, 101u);  // re-based by the anchor
}

TEST(Decode, KeepFillersAndAnchorsWhenAsked) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 50, 0);
  buf[3] = EventHeader::encode(51, 61, Major::Control, kFiller);

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  DecodeOptions opts;
  opts.keepFillers = true;
  opts.keepAnchors = true;
  decodeBuffer(buf, 0, 0, tsBase, events, opts);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].header.minor, kAnchor);
  EXPECT_TRUE(events[1].header.isFiller());
}

TEST(Decode, AnchorRebasesAcrossWrap) {
  // The anchor carries a full 64-bit timestamp beyond 2^32; later events'
  // 32-bit stamps unwrap against it.
  const uint64_t big = (5ull << 32) + 0xFFFFFFF0ull;
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, big, 0);
  putEvent(buf, 3, static_cast<uint32_t>(big + 0x20), Major::Test, 1, {});

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  decodeBuffer(buf, 0, 0, tsBase, events);
  ASSERT_EQ(events.size(), 1u);
  // 0xFFFFFFF0 + 0x20 wraps the low word; the full time must not go back.
  EXPECT_EQ(events[0].fullTimestamp, big + 0x20);
}

TEST(Decode, TimestampChainAdvancesBetweenAnchors) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 0xFFFFFF00ull, 0);
  uint32_t at = putEvent(buf, 3, 0xFFFFFFF0u, Major::Test, 1, {});
  at = putEvent(buf, at, 0x10u, Major::Test, 2, {});  // wrapped low word
  putEvent(buf, at, 0x30u, Major::Test, 3, {});

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  decodeBuffer(buf, 0, 0, tsBase, events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].fullTimestamp, 0xFFFFFFF0u);
  EXPECT_EQ(events[1].fullTimestamp, 0x100000010ull);
  EXPECT_EQ(events[2].fullTimestamp, 0x100000030ull);
}

TEST(Decode, SmallBackwardStepIsNotAWrap) {
  // An unordered TSC read can stamp an event slightly before its
  // predecessor; that is a step back, not 2^32 ticks forward.
  const uint64_t first = (3ull << 32) + 0x10;
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, first - 5, 0);
  uint32_t at = putEvent(buf, 3, static_cast<uint32_t>(first), Major::Test, 1, {});
  at = putEvent(buf, at, static_cast<uint32_t>(first - 100), Major::Test, 2, {});
  putEvent(buf, at, static_cast<uint32_t>(first + 50), Major::Test, 3, {});

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  decodeBuffer(buf, 0, 0, tsBase, events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].fullTimestamp, first);
  EXPECT_EQ(events[1].fullTimestamp, first - 100);
  EXPECT_EQ(events[2].fullTimestamp, first + 50);

  // The backward window is only kBackwardStepTicks wide: a forward step
  // that wraps the low word by more than that still moves time forward.
  const uint64_t base = 0xFFFFF000ull;
  const uint64_t later = base + (1ull << 32) - kBackwardStepTicks;
  EXPECT_EQ(unwrapTimestamp(base, static_cast<uint32_t>(later)), later);
  EXPECT_EQ(unwrapTimestamp(base, static_cast<uint32_t>(base + 0x30)), base + 0x30);
}

TEST(Decode, GarbledHeaderAbandonsBuffer) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 10, 0);
  uint32_t at = putEvent(buf, 3, 11, Major::Test, 1, {1});
  // Garbage: a "header" whose length crosses the buffer boundary.
  buf[at] = EventHeader::encode(12, 1000, Major::Test, 2);
  putEvent(buf, at + 2, 13, Major::Test, 3, {});  // unreachable

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  const DecodeStats stats = decodeBuffer(buf, 0, 0, tsBase, events);
  EXPECT_EQ(stats.garbledBuffers, 1u);
  EXPECT_EQ(stats.garbledWords, 64u - at);
  ASSERT_EQ(events.size(), 1u);  // only the event before the garbage
}

TEST(Decode, ZeroLengthHeaderIsGarbage) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 10, 0);
  // buf[3] stays zero: decodes as length 0.
  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  const DecodeStats stats = decodeBuffer(buf, 0, 0, tsBase, events);
  EXPECT_EQ(stats.garbledBuffers, 1u);
  EXPECT_TRUE(events.empty());
}

TEST(Decode, UnknownMajorIsGarbage) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 10, 0);
  buf[3] = EventHeader::encode(11, 2, static_cast<Major>(63), 0);
  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  const DecodeStats stats = decodeBuffer(buf, 0, 0, tsBase, events);
  EXPECT_EQ(stats.garbledBuffers, 1u);
}

TEST(Decode, MalformedAnchorLengthIsGarbage) {
  auto buf = makeBuffer(64);
  buf[0] = EventHeader::encode(1, 5, Major::Control, kAnchor);  // anchors are 3 words
  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  const DecodeStats stats = decodeBuffer(buf, 0, 0, tsBase, events);
  EXPECT_EQ(stats.garbledBuffers, 1u);
}

TEST(Decode, LimitWordsStopsAtPartialBuffer) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 10, 0);
  uint32_t at = putEvent(buf, 3, 11, Major::Test, 1, {});
  at = putEvent(buf, at, 12, Major::Test, 2, {9, 9});
  const uint32_t limit = at;  // pretend logging reached exactly here
  putEvent(buf, at, 13, Major::Test, 3, {});  // beyond the limit

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  decodeBuffer(buf, 0, 0, tsBase, events, {}, limit);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.back().header.minor, 2u);
}

TEST(Decode, EventStraddlingLimitIsExcluded) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 10, 0);
  putEvent(buf, 3, 11, Major::Test, 1, {1, 2, 3});
  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  decodeBuffer(buf, 0, 0, tsBase, events, {}, /*limitWords=*/5);  // event ends at 7
  EXPECT_TRUE(events.empty());
}

TEST(Decode, HeaderValidationRules) {
  EXPECT_FALSE(headerLooksValid(EventHeader::encode(0, 0, Major::Test, 0), 0, 64));
  EXPECT_FALSE(headerLooksValid(EventHeader::encode(0, 65, Major::Test, 0), 0, 64));
  EXPECT_FALSE(headerLooksValid(EventHeader::encode(0, 2, Major::Test, 0), 63, 64));
  EXPECT_TRUE(headerLooksValid(EventHeader::encode(0, 1, Major::Test, 0), 63, 64));
  EXPECT_TRUE(headerLooksValid(EventHeader::encode(0, 64, Major::Test, 0), 0, 64));
}

}  // namespace
}  // namespace ktrace
