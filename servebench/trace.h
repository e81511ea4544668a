// Measurement helpers for the serving benchmark: a monotonic clock, order
// statistics, process resource probes, and an in-memory span log.
//
// Spans are recorded only by the benchmark's own code, around the calls it
// makes into the library's public functions; the library itself is not
// instrumented. Each thread that records owns one SpanLog, so recording
// takes no lock; the logs are written out once the run ends.
#ifndef ISRL_SERVEBENCH_TRACE_H_
#define ISRL_SERVEBENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The q-quantile (0..1) of `values` by linear interpolation between order
/// statistics; 0 for an empty sample. Sorts `values` in place.
double Quantile(std::vector<double>& values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();
/// CPU nanoseconds consumed by the calling thread so far.
int64_t ThreadCpuNs();
/// Peak resident set size of this process in MiB.
double PeakRssMb();
/// Heap bytes currently allocated through malloc, over all arenas.
double HeapBytesInUse();

/// Thread ids of every thread of this process.
std::vector<int> ThreadIds();
/// CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();
/// Restricts thread `tid` to `cpu`. Returns false if the kernel refuses.
bool PinThread(int tid, int cpu);

/// The span names the benchmark records. Each names one public call (or
/// callback) at a layer boundary.
enum class SpanName : uint8_t {
  kAdd,               // ShardedScheduler::Add of an already started session
  kStartSession,      // InteractiveAlgorithm::StartSession
  kEnableDurability,  // ShardedScheduler::EnableDurability
  kStart,             // ShardedScheduler::Start
  kSinkDelivery,      // QuestionSink invocation on a shard worker
  kHarvest,           // HarvestSink invocation (session seen finished)
  kTryPostAnswer,     // ShardedScheduler::TryPostAnswer
  kWaitUntilDrained,  // ShardedScheduler::WaitUntilDrained
  kStop,              // ShardedScheduler::Stop
  kRecover,           // ShardedScheduler::Recover
  kTryTake,           // ShardedScheduler::TryTake
};
const char* SpanNameString(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;  ///< session id the span serves (kNoRequest if none)
  int32_t parent = -1;   ///< index of the enclosing span in the same log
  SpanName name = SpanName::kAdd;
};

inline constexpr uint64_t kNoRequest = ~0ull;

/// One thread's spans, in start order. Not thread-safe: one log per thread.
class SpanLog {
 public:
  explicit SpanLog(size_t reserve) { spans_.reserve(reserve); }

  /// Opens a span and returns its index; the innermost open span becomes
  /// its parent.
  size_t Open(SpanName name, uint64_t request) {
    Span span;
    span.name = name;
    span.request = request;
    span.parent = open_;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(size_t index) {
    spans_[index].end_ns = NowNs();
    open_ = spans_[index].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// RAII span over an optional log: a null log records nothing, so untraced
/// runs pay one branch per call site.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, uint64_t request = kNoRequest)
      : log_(log), index_(log != nullptr ? log->Open(name, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

/// Durations in microseconds of every span called `name` across `logs`.
std::vector<double> SpanDurationsUs(const std::vector<const SpanLog*>& logs,
                                    SpanName name);

/// Writes every span as CSV (thread,index,parent,name,request,start_ns,
/// end_ns) with start times relative to the earliest span. Returns false on
/// an I/O error.
bool WriteSpansCsv(const std::string& path,
                   const std::vector<const SpanLog*>& logs);

}  // namespace servebench

#endif  // ISRL_SERVEBENCH_TRACE_H_
