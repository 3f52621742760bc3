//===- Trace.h - In-memory spans around the library's public calls --------===//
//
// Part of primsel's benchmark (perfbench/). See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. Spans are recorded only here, in the
/// benchmark's own code, around each call into a layer of the library:
/// model build, optimize, compile, context creation, each run, each raw
/// cost call and each request from submit to resolution. Each span has a
/// layer name, a start and an end, the span that caused it (the enclosing
/// span on the same thread) and a request id that every span of one
/// request shares. Spans stay in memory and are written out when the run
/// ends. A layer's self time is its spans' durations minus the part their
/// child spans cover.
///
/// When tracing is off a Span costs one relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One finished span.
struct SpanRecord {
  const char *Layer = "";
  uint64_t Id = 0;
  uint64_t Parent = 0;  ///< 0 = a root span
  uint64_t Request = 0; ///< 0 = not part of a request
  uint32_t Thread = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// The process-wide recorder. Thread-safe.
class Tracer {
public:
  static Tracer &instance();

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }
  /// Append a finished span (a no-op while tracing is off).
  void record(const SpanRecord &R);

  std::vector<SpanRecord> spans() const;
  /// Seconds of self time per layer over every recorded span.
  std::map<std::string, double> selfSeconds() const;
  /// Write every span as one JSON object per line. False on I/O failure.
  bool writeJsonLines(const std::string &Path) const;

private:
  Tracer() = default;
  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Mutex;
  std::vector<SpanRecord> Spans; ///< guarded by Mutex
};

/// Self time per layer of \p Spans: each span's duration minus the
/// durations of its children (spans naming it as Parent), summed by layer.
std::map<std::string, double>
selfSecondsOf(const std::vector<SpanRecord> &Spans);

/// Nanoseconds on the serving stack's steady clock, the one time base of
/// every span and every latency the benchmark takes.
int64_t nowNs();

/// RAII span: opens on construction, records on destruction, and is the
/// parent of every span opened on the same thread while it is live.
/// \p Request 0 inherits the enclosing span's request id.
class Span {
public:
  explicit Span(const char *Layer, uint64_t Request = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanRecord Rec;
  uint64_t SavedParent = 0;
  uint64_t SavedRequest = 0;
  bool Active = false;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
