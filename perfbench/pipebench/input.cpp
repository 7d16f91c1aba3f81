#include "pipebench/input.hpp"

#include <filesystem>
#include <memory>
#include <stdexcept>

#include "analysis/reader.hpp"
#include "analysis/symbols.hpp"
#include "core/ktrace.hpp"
#include "ossim/machine.hpp"
#include "pipebench/common.hpp"
#include "workload/sdet.hpp"

namespace pipebench {

using namespace ktrace;

bool SdetStream::matches(uint64_t i, const DecodedEvent& decoded) const {
  const InEvent& e = at(i);
  if (decoded.header.major != e.major || decoded.header.minor != e.minor ||
      decoded.data.size() != e.words) {
    return false;
  }
  const uint64_t* got = decoded.data.data();
  const uint64_t* want = payload.data() + e.offset;
  for (uint32_t k = 0; k < e.words; ++k) {
    if (got[k] != want[k]) return false;
  }
  return true;
}

uint64_t SdetInput::totalEvents() const {
  uint64_t n = 0;
  for (const SdetStream& s : streams) n += s.events.size();
  return n;
}

double SdetInput::meanEventWords() const {
  uint64_t words = 0;
  for (const SdetStream& s : streams) {
    for (const InEvent& e : s.events) words += 1u + e.words;
  }
  const uint64_t n = totalEvents();
  return n == 0 ? 0 : static_cast<double>(words) / static_cast<double>(n);
}

uint64_t SdetInput::digest() const {
  Fnv f;
  for (const SdetStream& s : streams) {
    f.mix(s.events.size());
    for (const InEvent& e : s.events) {
      f.mix((static_cast<uint64_t>(e.major) << 32) |
            (static_cast<uint64_t>(e.minor) << 16) | e.words);
      for (const uint64_t w : s.words(e)) f.mix(w);
    }
  }
  return f.h;
}

SdetInput makeSdetInput(uint64_t seed, uint32_t processors) {
  FacilityConfig fcfg;
  fcfg.numProcessors = processors;
  fcfg.bufferWords = 1u << 14;
  // Large enough that the simulation never laps the ring: nothing is
  // drained until it has finished, so the input never depends on timing.
  fcfg.buffersPerProcessor = 256;
  fcfg.clockKind = ClockKind::Virtual;
  FakeClock boot(0, 0);
  fcfg.clockOverride = boot.ref();
  fcfg.mode = Mode::Stream;
  Facility facility(fcfg);
  facility.mask().enableAll();
  MemorySink sink;
  Consumer consumer(facility, sink, {});

  ossim::MachineConfig mcfg;
  mcfg.numProcessors = processors;
  mcfg.seed = seed;
  mcfg.pcSampleIntervalNs = 200'000;  // Prof samples feed the profile fold
  ossim::Machine machine(mcfg, &facility);
  analysis::SymbolTable symbols;
  workload::SdetConfig scfg;
  scfg.numScripts = 4 * processors;
  scfg.commandsPerScript = 12;
  scfg.seed = seed;
  workload::SdetWorkload sdet(scfg, machine, symbols);
  sdet.spawnAll();
  machine.run();
  facility.flushAll();
  consumer.drainNow();
  if (consumer.stats().buffersLost != 0) {
    throw std::runtime_error("SDET input generation lapped its ring");
  }

  const auto trace = analysis::TraceSet::fromRecords(sink.records());
  SdetInput input;
  input.streams.resize(processors);
  for (uint32_t p = 0; p < processors && p < trace.numProcessors(); ++p) {
    SdetStream& s = input.streams[p];
    for (const DecodedEvent& e : trace.processorEvents(p)) {
      if (e.header.major == Major::Control || e.header.major == Major::Monitor) {
        continue;
      }
      InEvent in;
      in.major = e.header.major;
      in.minor = e.header.minor;
      in.words = static_cast<uint16_t>(e.data.size());
      in.offset = static_cast<uint32_t>(s.payload.size());
      s.payload.insert(s.payload.end(), e.data.data(),
                       e.data.data() + e.data.size());
      s.events.push_back(in);
    }
    if (s.events.empty()) {
      throw std::runtime_error("SDET produced no events on a processor");
    }
  }
  return input;
}

StreamCheck checkFiles(const std::string& basePath, const SdetStream& stream,
                       uint64_t expected) {
  StreamCheck check;
  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  for (uint32_t segment = 0;; ++segment) {
    const std::string path = rotationSegmentPath(basePath, segment);
    if (!std::filesystem::exists(path)) break;
    std::unique_ptr<TraceFileReader> reader;
    try {
      reader = std::make_unique<TraceFileReader>(path);
    } catch (const std::exception&) {
      ++check.undecodable;  // the whole segment is unreadable
      continue;
    }
    for (uint64_t k = 0; k < reader->bufferCount(); ++k) {
      BufferView view;
      if (!reader->readBufferView(k, view)) {
        ++check.undecodable;
        continue;
      }
      events.clear();
      decodeBuffer(view.words, view.seq, view.processor, tsBase, events);
      for (const DecodedEvent& e : events) {
        if (check.events >= expected || !stream.matches(check.events, e)) {
          ++check.mismatches;
        }
        ++check.events;
      }
    }
  }
  if (check.events < expected) check.mismatches += expected - check.events;
  return check;
}

}  // namespace pipebench
