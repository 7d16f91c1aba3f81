#include "core/crash_dump.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/shm_session.hpp"
#include "util/table.hpp"

namespace ktrace {

namespace {

constexpr char kMagic[8] = {'K', '4', '2', 'D', 'U', 'M', 'P', '1'};

struct DumpFileHeader {
  char magic[8];
  uint32_t version;
  uint32_t numProcessors;
  uint64_t ticksPerSecondBits;
  uint8_t padding[64 - 8 - 4 * 2 - 8];
};
static_assert(sizeof(DumpFileHeader) == 64);

struct DumpControlHeader {
  uint32_t processorId;
  uint32_t bufferWords;
  uint32_t numBuffers;
  uint32_t reserved;
  uint64_t index;
  uint8_t padding[64 - 4 * 4 - 8];
};
static_assert(sizeof(DumpControlHeader) == 64);

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool writeCrashDump(const Facility& facility, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) return false;

  DumpFileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = 1;
  header.numProcessors = facility.numProcessors();
  const double tps = clockTicksPerSecond(facility.config().clockKind);
  std::memcpy(&header.ticksPerSecondBits, &tps, sizeof(double));
  if (std::fwrite(&header, sizeof(header), 1, file.get()) != 1) return false;

  for (uint32_t p = 0; p < facility.numProcessors(); ++p) {
    const TraceControl& control = facility.control(p);
    DumpControlHeader ch{};
    ch.processorId = control.processorId();
    ch.bufferWords = control.bufferWords();
    ch.numBuffers = control.numBuffers();
    ch.index = control.currentIndex();
    if (std::fwrite(&ch, sizeof(ch), 1, file.get()) != 1) return false;

    for (uint32_t slot = 0; slot < control.numBuffers(); ++slot) {
      const auto& state = control.bufferState(slot);
      const uint64_t triple[3] = {
          state.committed.load(std::memory_order_relaxed),
          state.lapStartCommitted.load(std::memory_order_relaxed),
          state.lapSeq.load(std::memory_order_relaxed),
      };
      if (std::fwrite(triple, sizeof(triple), 1, file.get()) != 1) return false;
    }

    // Ring words, copied via the same relaxed-atomic loads logging uses.
    const uint64_t words = control.regionWords();
    std::vector<uint64_t> chunk(4096);
    for (uint64_t at = 0; at < words;) {
      const uint64_t n = std::min<uint64_t>(chunk.size(), words - at);
      for (uint64_t i = 0; i < n; ++i) chunk[i] = control.loadWord(at + i);
      if (std::fwrite(chunk.data(), sizeof(uint64_t), n, file.get()) != n) return false;
      at += n;
    }
  }
  return std::fflush(file.get()) == 0;
}

CrashDumpReader::CrashDumpReader(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) throw std::runtime_error("CrashDumpReader: cannot open " + path);

  DumpFileHeader header{};
  if (std::fread(&header, sizeof(header), 1, file.get()) != 1 ||
      std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0 || header.version != 1) {
    throw std::runtime_error("CrashDumpReader: bad dump header in " + path);
  }
  std::memcpy(&ticksPerSecond_, &header.ticksPerSecondBits, sizeof(double));

  // Hostile-header bounds: the per-processor geometry below drives vector
  // sizes and a division, so reject implausible values (same ceilings as
  // ShmControlState) instead of resizing to gigabytes or dividing by zero.
  if (header.numProcessors == 0 ||
      header.numProcessors > ShmSessionHeader::kMaxProcessors) {
    throw std::runtime_error("CrashDumpReader: implausible processor count");
  }

  processors_.resize(header.numProcessors);
  for (auto& image : processors_) {
    DumpControlHeader ch{};
    if (std::fread(&ch, sizeof(ch), 1, file.get()) != 1) {
      throw std::runtime_error("CrashDumpReader: truncated control header");
    }
    if (ch.bufferWords == 0 || ch.bufferWords > ShmControlState::kMaxBufferWords ||
        ch.numBuffers == 0 || ch.numBuffers > ShmControlState::kMaxNumBuffers) {
      throw std::runtime_error("CrashDumpReader: implausible control geometry");
    }
    image.processorId = ch.processorId;
    image.bufferWords = ch.bufferWords;
    image.numBuffers = ch.numBuffers;
    image.index = ch.index;
    image.committed.resize(ch.numBuffers);
    image.lapStartCommitted.resize(ch.numBuffers);
    image.lapSeq.resize(ch.numBuffers);
    for (uint32_t slot = 0; slot < ch.numBuffers; ++slot) {
      uint64_t triple[3];
      if (std::fread(triple, sizeof(triple), 1, file.get()) != 1) {
        throw std::runtime_error("CrashDumpReader: truncated slot state");
      }
      image.committed[slot] = triple[0];
      image.lapStartCommitted[slot] = triple[1];
      image.lapSeq[slot] = triple[2];
    }
    const uint64_t words = static_cast<uint64_t>(ch.bufferWords) * ch.numBuffers;
    image.region.resize(words);
    if (std::fread(image.region.data(), sizeof(uint64_t), words, file.get()) != words) {
      throw std::runtime_error("CrashDumpReader: truncated region");
    }
  }
}

std::vector<DecodedEvent> CrashDumpReader::snapshot(
    uint32_t processor, const FlightRecorderOptions& options) const {
  const ProcessorImage& image = processors_[processor];
  const auto lapWords = [&](uint32_t slot) {
    return std::span<const uint64_t>(
        image.region.data() + static_cast<uint64_t>(slot) * image.bufferWords,
        image.bufferWords);
  };
  return decodeRecentLaps(image.processorId, image.bufferWords, image.numBuffers,
                          image.index, lapWords, options);
}

std::string CrashDumpReader::report(uint32_t processor, const Registry& registry,
                                    const FlightRecorderOptions& options) const {
  std::string out;
  for (const DecodedEvent& e : snapshot(processor, options)) {
    out += util::strprintf(
        "%14.7f  %-34s %s\n", static_cast<double>(e.fullTimestamp) / ticksPerSecond_,
        registry.eventName(e.header.major, e.header.minor).c_str(),
        registry.formatEvent(e.asEvent()).c_str());
  }
  return out;
}

}  // namespace ktrace
