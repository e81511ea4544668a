#include "trace.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>

namespace servebench {

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HeapBytesInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) + static_cast<double>(info.hblkhd);
}

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(std::atoi(entry.path().filename().c_str()));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinThread(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kAdd: return "Add";
    case SpanName::kStartSession: return "StartSession";
    case SpanName::kEnableDurability: return "EnableDurability";
    case SpanName::kStart: return "Start";
    case SpanName::kSinkDelivery: return "SinkDelivery";
    case SpanName::kHarvest: return "Harvest";
    case SpanName::kTryPostAnswer: return "TryPostAnswer";
    case SpanName::kWaitUntilDrained: return "WaitUntilDrained";
    case SpanName::kStop: return "Stop";
    case SpanName::kRecover: return "Recover";
    case SpanName::kTryTake: return "TryTake";
  }
  return "?";
}

std::vector<double> SpanDurationsUs(const std::vector<const SpanLog*>& logs,
                                    SpanName name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (span.name == name) out.push_back(NsToUs(span.end_ns - span.start_ns));
    }
  }
  return out;
}

bool WriteSpansCsv(const std::string& path,
                   const std::vector<const SpanLog*>& logs) {
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const SpanLog* log : logs) {
    if (!log->spans().empty()) {
      origin = std::min(origin, log->spans().front().start_ns);
    }
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,name,request,start_ns,end_ns\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%d,%s,%lld,%lld,%lld\n", t, i, s.parent,
                   SpanNameString(s.name),
                   s.request == kNoRequest ? -1LL
                                           : static_cast<long long>(s.request),
                   static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
