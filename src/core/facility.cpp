#include "core/facility.hpp"

#include <atomic>
#include <stdexcept>

namespace ktrace {

namespace {

// A binding names its facility by id, not address: a Facility built where a
// destroyed one lived must not inherit another thread's stale binding.
struct ThreadBinding {
  uint64_t facilityId = 0;
  TraceControl* control = nullptr;
  uint32_t processor = 0;
};

thread_local ThreadBinding tlsBinding;

std::atomic<Facility*> gCurrentFacility{nullptr};
std::atomic<uint64_t> gNextFacilityId{1};

}  // namespace

Facility::Facility(const FacilityConfig& config)
    : config_(config),
      mask_(config.initialMask),
      id_(gNextFacilityId.fetch_add(1, std::memory_order_relaxed)) {
  if (config_.numProcessors == 0) {
    throw std::invalid_argument("numProcessors must be at least 1");
  }
  const ClockRef clock = config_.clockOverride.valid()
                             ? config_.clockOverride
                             : defaultClockRef(config_.clockKind);
  controls_.reserve(config_.numProcessors);
  for (uint32_t p = 0; p < config_.numProcessors; ++p) {
    TraceControlConfig cc;
    cc.processorId = p;
    cc.bufferWords = config_.bufferWords;
    cc.numBuffers = config_.buffersPerProcessor;
    cc.clock = clock;
    cc.commitCounts = config_.commitCounts;
    cc.timestampPerAttempt = config_.timestampPerAttempt;
    cc.selfMonitoring = config_.selfMonitoring;
    controls_.push_back(std::make_unique<TraceControl>(cc));
  }
}

Facility::~Facility() {
  if (Facility::current() == this) Facility::setCurrent(nullptr);
  if (tlsBinding.facilityId == id_) tlsBinding = {};
}

void Facility::bindCurrentThread(uint32_t processor) noexcept {
  tlsBinding.facilityId = id_;
  tlsBinding.control = controls_[processor].get();
  tlsBinding.processor = processor;
}

void Facility::unbindCurrentThread() noexcept {
  if (tlsBinding.facilityId == id_) tlsBinding = {};
}

TraceControl* Facility::currentControl() const noexcept {
  return tlsBinding.facilityId == id_ ? tlsBinding.control : nullptr;
}

uint32_t Facility::currentProcessor() const noexcept {
  return tlsBinding.facilityId == id_ ? tlsBinding.processor : numProcessors();
}

void Facility::flushAll() noexcept {
  for (auto& control : controls_) control->flushCurrentBuffer();
}

Facility* Facility::current() noexcept {
  return gCurrentFacility.load(std::memory_order_acquire);
}

void Facility::setCurrent(Facility* facility) noexcept {
  gCurrentFacility.store(facility, std::memory_order_release);
}

}  // namespace ktrace
