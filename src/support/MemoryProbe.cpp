//===- support/MemoryProbe.cpp - Peak memory reporting --------------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "support/MemoryProbe.h"

#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

uint64_t txdpor::peakRssKb() {
  // VmHWM is this process image's own high-water mark (in kB).
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10);
  // ru_maxrss (kB on Linux) survives execve, so it can report a larger
  // parent's peak; it is only the fallback where /proc is unavailable.
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
  return static_cast<uint64_t>(Usage.ru_maxrss);
}

void txdpor::restartPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0); // Freed heap still resident would count toward the peak.
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}
