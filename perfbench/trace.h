// Spans recorded by the benchmark around its calls into each layer. They
// stay in memory and are written out as JSON when the run ends.
//
// A span is (name, id, parent id, start, end, op count). The served run
// records one span per request frame (send to response) under the window's
// span; the layer ladder records one span per timed pass of one call kind
// on one rung, under the rung's span. Per-call spans would cost two clock
// reads around calls of a few hundred nanoseconds, so a pass span carries
// its call count instead and per-call cost is duration / count.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t ops;
};

class TraceLog {
 public:
  static constexpr size_t kMaxSpansPerBuffer = 1 << 20;

  // One buffer per recording thread; recording takes no lock.
  class Buffer {
   public:
    explicit Buffer(TraceLog* log) : log_(log) {
      if (log_ != nullptr) {
        spans_.reserve(1 << 16);
      }
    }
    bool on() const { return log_ != nullptr; }
    void record(const char* name, uint64_t parent, uint64_t start, uint64_t end, uint64_t ops) {
      if (log_ == nullptr) {
        return;
      }
      if (spans_.size() >= kMaxSpansPerBuffer) {
        ++dropped_;
        return;
      }
      spans_.push_back(Span{name, log_->next_id(), parent, start, end, ops});
    }
    ~Buffer() {
      if (log_ != nullptr) {
        log_->merge(spans_, dropped_);
      }
    }
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;

   private:
    TraceLog* log_;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
  };

  uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed); }

  // Records a span from the controlling thread and returns its id. A span
  // whose children are recorded first takes an id reserved with next_id().
  uint64_t record(const char* name, uint64_t parent, uint64_t start, uint64_t end,
                  uint64_t ops = 0, uint64_t id = 0) {
    if (id == 0) {
      id = next_id();
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, id, parent, start, end, ops});
    return id;
  }

  void merge(const std::vector<Span>& spans, uint64_t dropped) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
    dropped_ += dropped;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  // Per-name totals, each span's self time (its duration minus the part its
  // children cover), and the spans themselves up to `max_listed`.
  bool write_json(const std::string& path, size_t max_listed) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint64_t, uint64_t> child_ns;
    for (const Span& s : spans_) {
      if (s.parent != 0) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    struct Totals {
      uint64_t count = 0, total_ns = 0, self_ns = 0, ops = 0;
    };
    std::map<std::string, Totals> by_name;
    for (const Span& s : spans_) {
      Totals& t = by_name[s.name];
      uint64_t dur = s.end_ns - s.start_ns;
      auto c = child_ns.find(s.id);
      uint64_t covered = c == child_ns.end() ? 0 : std::min(c->second, dur);
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - covered;
      t.ops += s.ops;
    }
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"dropped\": %llu, \"totals\": {", static_cast<unsigned long long>(dropped_));
    bool first = true;
    for (const auto& [name, t] : by_name) {
      std::fprintf(f, "%s\n  \"%s\": {\"count\": %llu, \"total_ns\": %llu, \"self_ns\": %llu, "
                   "\"ops\": %llu}",
                   first ? "" : ",", name.c_str(), static_cast<unsigned long long>(t.count),
                   static_cast<unsigned long long>(t.total_ns),
                   static_cast<unsigned long long>(t.self_ns),
                   static_cast<unsigned long long>(t.ops));
      first = false;
    }
    std::fprintf(f, "},\n\"spans\": [");
    size_t n = std::min(max_listed, spans_.size());
    uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      origin = std::min(origin, s.start_ns);
    }
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"start_ns\": %llu, \"end_ns\": %llu, \"ops\": %llu}",
                   i == 0 ? "" : ",", s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.start_ns - origin),
                   static_cast<unsigned long long>(s.end_ns - origin),
                   static_cast<unsigned long long>(s.ops));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<uint64_t> ids_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
