// Sample distributions, outside-in resource probes and the result report.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nclbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A sample of one quantity. Percentiles are nearest-rank, and a percentile
/// is quoted only when at least kTail samples lie beyond it.
class Dist {
 public:
  static constexpr size_t kTail = 10;

  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Append(const Dist& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Mean() const;
  /// True when `p` (in (0, 1)) has at least kTail samples beyond it.
  bool Supports(double p) const;
  /// Nearest-rank percentile; 0 for an empty sample.
  double Pct(double p) const;
  /// The samples, space-separated (in the order added until a percentile
  /// sorts them).
  std::string Join() const;

 private:
  void Sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Median of `values` (the upper one of an even count); 0 when empty.
double Median(std::vector<double> values);

/// Peak resident set of this process so far [MiB] (getrusage).
double PeakRssMb();
/// User + system CPU seconds consumed by this process (getrusage).
double ProcessCpuSeconds();
/// Threads in this process (/proc/self/status).
int64_t ThreadCount();
/// Open file descriptors of this process (/proc/self/fd).
int64_t FdCount();
/// Machine-wide CPU time [ticks] from /proc/stat: all of it, and the part
/// the hypervisor gave to other guests while this one wanted to run.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks HostCpuTicks();
/// Share of CPU time stolen between two readings [%].
double StealPct(const CpuTicks& before, const CpuTicks& after);

/// Collects named metrics and prints them: one human-readable line each,
/// then the result object as the last line of standard output.
class Report {
 public:
  /// `samples` is the sample count behind the value (0 = not a sample
  /// statistic); `note` is printed beside it.
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, const std::string& note = "");
  /// Print a free-form line before the metrics.
  void Note(const std::string& line);
  /// Print every metric line, then the result object.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// Shortest text that reads back as `value`.
std::string FormatNumber(double value);

}  // namespace nclbench
