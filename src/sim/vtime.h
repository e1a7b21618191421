#ifndef HETEX_SIM_VTIME_H_
#define HETEX_SIM_VTIME_H_

#include <algorithm>

namespace hetex::sim {

/// Virtual (modeled) time, in seconds.
///
/// The simulator layers a virtual clock on top of the real, functional execution:
/// every block of data carries the virtual timestamp at which it becomes available
/// (`ready_at`), every execution context (pipeline instance, GPU stream, DMA
/// channel) owns a clock, and processing a block advances
/// `max(clock, block.ready_at)` by the modeled cost of the work.
using VTime = double;

inline VTime MaxT(VTime a, VTime b) { return std::max(a, b); }

}  // namespace hetex::sim

#endif  // HETEX_SIM_VTIME_H_
