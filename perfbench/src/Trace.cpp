//===- Trace.cpp - In-memory spans around the library's public calls ------===//
//
// Part of primsel's benchmark (perfbench/). See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "serve/Clock.h"

#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

using namespace perfbench;

namespace {
/// The innermost live span on this thread (0 = none) and its request.
thread_local uint64_t CurrentSpan = 0;
thread_local uint64_t CurrentRequest = 0;

uint32_t threadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
}
} // namespace

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

void Tracer::record(const SpanRecord &R) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> G(Mutex);
  Spans.push_back(R);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> G(Mutex);
  return Spans;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  return selfSecondsOf(spans());
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::vector<SpanRecord> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const SpanRecord &R : All)
    std::fprintf(F,
                 "{\"layer\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"thread\": %u, \"start_ns\": %lld, "
                 "\"end_ns\": %lld}\n",
                 R.Layer, static_cast<unsigned long long>(R.Id),
                 static_cast<unsigned long long>(R.Parent),
                 static_cast<unsigned long long>(R.Request), R.Thread,
                 static_cast<long long>(R.StartNs),
                 static_cast<long long>(R.EndNs));
  return std::fclose(F) == 0;
}

std::map<std::string, double>
perfbench::selfSecondsOf(const std::vector<SpanRecord> &Spans) {
  std::unordered_map<uint64_t, int64_t> ChildNs;
  for (const SpanRecord &R : Spans)
    if (R.Parent != 0)
      ChildNs[R.Parent] += R.EndNs - R.StartNs;
  std::map<std::string, double> Self;
  for (const SpanRecord &R : Spans) {
    auto It = ChildNs.find(R.Id);
    int64_t Covered = It == ChildNs.end() ? 0 : It->second;
    Self[R.Layer] += static_cast<double>(R.EndNs - R.StartNs - Covered) * 1e-9;
  }
  return Self;
}

int64_t perfbench::nowNs() { return primsel::serve::steadyClock().now(); }

Span::Span(const char *Layer, uint64_t Request) {
  Tracer &T = Tracer::instance();
  if (!T.enabled())
    return;
  Active = true;
  Rec.Layer = Layer;
  Rec.Id = T.newId();
  Rec.Parent = CurrentSpan;
  Rec.Request = Request ? Request : CurrentRequest;
  Rec.Thread = threadTag();
  SavedParent = CurrentSpan;
  SavedRequest = CurrentRequest;
  CurrentSpan = Rec.Id;
  CurrentRequest = Rec.Request;
  Rec.StartNs = nowNs();
}

Span::~Span() {
  if (!Active)
    return;
  Rec.EndNs = nowNs();
  CurrentSpan = SavedParent;
  CurrentRequest = SavedRequest;
  Tracer::instance().record(Rec);
}
