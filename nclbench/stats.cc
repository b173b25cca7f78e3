#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace nclbench {

void Dist::Append(const Dist& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Dist::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

bool Dist::Supports(double p) const {
  const size_t n = values_.size();
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n > 0 && n - std::min(rank, n) >= kTail;
}

double Dist::Pct(double p) const {
  if (values_.empty()) return 0.0;
  Sort();
  const size_t n = values_.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return values_[rank - 1];
}

std::string Dist::Join() const {
  std::string out;
  for (double v : values_) out += (out.empty() ? "" : " ") + FormatNumber(v);
  return out;
}

void Dist::Sort() const {
  if (sorted_) return;
  std::sort(values_.begin(), values_.end());
  sorted_ = true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int64_t ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoll(line.substr(8));
  }
  return 0;
}

int64_t FdCount() {
  std::error_code error;
  int64_t count = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd", error);
       !error && it != std::filesystem::directory_iterator(); it.increment(error)) {
    ++count;
  }
  return count - 1;  // the directory handle the iteration itself holds
}

CpuTicks HostCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && stat; ++field) {
    uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealPct(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total > before.total ? after.total - before.total : 0;
  return total ? 100.0 * static_cast<double>(after.steal - before.steal) /
                     static_cast<double>(total)
               : 0.0;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 size_t samples, const std::string& note) {
  entries_.push_back(Entry{name, value, unit, samples, note});
}

void Report::Note(const std::string& line) { std::cout << line << "\n"; }

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const Entry& entry : entries_) {
    std::cout << "metric " << entry.name << " = " << FormatNumber(entry.value)
              << " " << entry.unit;
    if (entry.samples > 0) std::cout << "  (n=" << entry.samples << ")";
    if (!entry.note.empty()) std::cout << "  [" << entry.note << "]";
    std::cout << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    std::cout << (i ? ", " : "") << "\"" << entry.name << "\": {\"value\": "
              << FormatNumber(entry.value) << ", \"unit\": \"" << entry.unit
              << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace nclbench
