#pragma once

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>

/// Resident-set readings for the benchmark, in bytes. The page size comes
/// from sysconf, never a hard-coded 4096.
namespace oddci_bench {

/// Current resident set (/proc/self/statm); 0 where unavailable.
inline std::uint64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t total_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return page > 0 ? resident_pages * static_cast<std::uint64_t>(page) : 0;
}

/// High-water resident set of this process image (VmHWM in
/// /proc/self/status); 0 where unavailable. getrusage's ru_maxrss is not
/// used: Linux carries it across execve, so a spawned child would report
/// its parent's peak whenever that is the larger.
inline std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

}  // namespace oddci_bench
