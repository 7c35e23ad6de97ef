//===- support/MemoryProbe.h - Peak memory reporting ----------------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fig. 14b of the paper plots memory consumption per algorithm. We report
/// the process peak RSS (VmHWM), which is what "memory consumption" of a
/// JVM-hosted run approximates as well. Peak RSS is monotone unless reset,
/// so per-run numbers within one bench binary are upper bounds — or, after
/// restartPeakRss(), the peak of what ran since; the polynomial-space claim
/// shows up as the curve staying flat.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_SUPPORT_MEMORYPROBE_H
#define TXDPOR_SUPPORT_MEMORYPROBE_H

#include <cstdint>

namespace txdpor {

/// Returns the peak resident set size of this process in kilobytes, or 0 if
/// it cannot be determined. Reads VmHWM from /proc/self/status, falling
/// back to getrusage's ru_maxrss (which survives execve, so it may report
/// a larger parent's peak) where /proc is unavailable.
uint64_t peakRssKb();

/// Returns freed heap to the kernel (glibc) and restarts the peak-RSS
/// high-water mark at the current RSS (Linux /proc/self/clear_refs "5"),
/// so the next peakRssKb() covers only what runs from here on. Where that
/// is not supported the peak keeps counting from process start.
void restartPeakRss();

} // namespace txdpor

#endif // TXDPOR_SUPPORT_MEMORYPROBE_H
