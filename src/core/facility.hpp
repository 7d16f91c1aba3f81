// The unified tracing facility (paper §2 goals 1-7).
//
// One Facility owns one TraceControl per (simulated or physical) processor,
// the single 64-bit trace mask shared by every subsystem, and the clock.
// Threads bind themselves to a processor (the userspace analogue of K42's
// per-processor user-mapped control structures) and then log through the
// facility's inline fast paths; applications, libraries, "servers" and the
// "kernel" (ossim) all share the same buffers, giving the unified event
// stream with monotonically increasing per-processor timestamps that the
// paper argues for.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/control.hpp"
#include "core/logger.hpp"
#include "core/mask.hpp"
#include "core/timestamp.hpp"

namespace ktrace {

enum class Mode : uint8_t {
  FlightRecorder,  // circular buffers, newest overwrites oldest (§4.2)
  Stream,          // completed buffers are handed to a Consumer/Sink
};

struct FacilityConfig {
  uint32_t numProcessors = 1;
  uint32_t bufferWords = 1u << 14;  // 128 KiB buffers
  uint32_t buffersPerProcessor = 8;
  ClockKind clockKind = ClockKind::Tsc;
  /// When valid, used instead of defaultClockRef(clockKind) — e.g. a
  /// VirtualClock or FakeClock. Per-processor clocks can be installed
  /// afterwards via setProcessorClock.
  ClockRef clockOverride{};
  bool commitCounts = true;
  /// Ablation switch, see TraceControlConfig::timestampPerAttempt.
  bool timestampPerAttempt = true;
  /// Hot-path self-monitoring counters, see TraceControlConfig::selfMonitoring.
  bool selfMonitoring = true;
  Mode mode = Mode::FlightRecorder;
  uint64_t initialMask = 0;  // tracing starts disabled, ready to enable
};

class Facility {
 public:
  explicit Facility(const FacilityConfig& config = {});
  ~Facility();

  Facility(const Facility&) = delete;
  Facility& operator=(const Facility&) = delete;

  const FacilityConfig& config() const noexcept { return config_; }
  TraceMask& mask() noexcept { return mask_; }
  const TraceMask& mask() const noexcept { return mask_; }
  uint32_t numProcessors() const noexcept { return static_cast<uint32_t>(controls_.size()); }
  Mode mode() const noexcept { return config_.mode; }

  TraceControl& control(uint32_t processor) noexcept { return *controls_[processor]; }
  const TraceControl& control(uint32_t processor) const noexcept { return *controls_[processor]; }

  /// Replace a processor's clock (ossim installs its per-processor virtual
  /// clocks this way). Call before logging on that processor.
  void setProcessorClock(uint32_t processor, ClockRef clock) noexcept {
    controls_[processor]->setClock(clock);
  }

  // --- thread binding -------------------------------------------------
  /// Bind the calling thread to a processor of this facility. All log
  /// calls without an explicit control use this binding.
  void bindCurrentThread(uint32_t processor) noexcept;
  void unbindCurrentThread() noexcept;
  /// The calling thread's control within this facility, or nullptr.
  TraceControl* currentControl() const noexcept;
  /// Processor the calling thread is bound to; numProcessors() if unbound.
  uint32_t currentProcessor() const noexcept;

  // --- logging fast paths ----------------------------------------------
  /// Mask-checked, fixed-arity event log on the bound processor. The mask
  /// check is the paper's "single comparison of a major class bit".
  template <typename... Ws>
    requires(std::convertible_to<Ws, uint64_t> && ...)
  bool log(Major major, uint16_t minor, Ws... words) noexcept {
    if (!mask_.isEnabled(major)) return false;
    TraceControl* c = currentControl();
    if (c == nullptr) return false;
    return logEvent(*c, major, minor, words...);
  }

  /// Mask-checked log on an explicit processor (e.g. from ossim, where the
  /// "current processor" is simulation state rather than the host thread).
  template <typename... Ws>
    requires(std::convertible_to<Ws, uint64_t> && ...)
  bool logOn(uint32_t processor, Major major, uint16_t minor, Ws... words) noexcept {
    if (!mask_.isEnabled(major)) return false;
    return logEvent(*controls_[processor], major, minor, words...);
  }

  bool logData(Major major, uint16_t minor, std::span<const uint64_t> data) noexcept {
    if (!mask_.isEnabled(major)) return false;
    TraceControl* c = currentControl();
    if (c == nullptr) return false;
    return logEventData(*c, major, minor, data);
  }

  bool logString(Major major, uint16_t minor, std::string_view text,
                 std::span<const uint64_t> leading = {}) {
    if (!mask_.isEnabled(major)) return false;
    TraceControl* c = currentControl();
    if (c == nullptr) return false;
    return logEventString(*c, major, minor, text, leading);
  }

  /// Pad every processor's current buffer to its boundary so all logged
  /// events become consumable. Call with producers quiesced.
  void flushAll() noexcept;

  // --- process-wide instance for macro-style use ------------------------
  static Facility* current() noexcept;
  static void setCurrent(Facility* facility) noexcept;

 private:
  FacilityConfig config_;
  TraceMask mask_;
  /// Process-unique, never reused: what a thread binding is checked against.
  uint64_t id_;
  std::vector<std::unique_ptr<TraceControl>> controls_;
};

// Compile-out support (paper §2 goal 6): with KTRACE_COMPILED_IN defined to
// 0, every KT_LOG* statement vanishes entirely. With it defined to 1 (the
// default), a disabled facility costs one load + AND per statement.
#ifndef KTRACE_COMPILED_IN
#define KTRACE_COMPILED_IN 1
#endif

#if KTRACE_COMPILED_IN
#define KT_LOG(major, minor, ...)                                     \
  do {                                                                \
    ::ktrace::Facility* ktFac_ = ::ktrace::Facility::current();       \
    if (ktFac_ != nullptr && ktFac_->mask().isEnabled(major)) {       \
      ktFac_->log(major, minor, ##__VA_ARGS__);                       \
    }                                                                 \
  } while (0)
#define KT_LOG_STRING(major, minor, text)                             \
  do {                                                                \
    ::ktrace::Facility* ktFac_ = ::ktrace::Facility::current();       \
    if (ktFac_ != nullptr && ktFac_->mask().isEnabled(major)) {       \
      ktFac_->logString(major, minor, text);                          \
    }                                                                 \
  } while (0)
#else
#define KT_LOG(major, minor, ...) ((void)0)
#define KT_LOG_STRING(major, minor, text) ((void)0)
#endif

}  // namespace ktrace
