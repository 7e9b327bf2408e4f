// Wall-clock budgets as steady_clock deadlines: the one rule for "no time
// limit" that every anytime search (exhaustive, lns, the ladder, the
// mapper) shares.
#ifndef EBLOCKS_CORE_DEADLINE_H_
#define EBLOCKS_CORE_DEADLINE_H_

#include <chrono>

namespace eblocks {

/// The steady_clock deadline `seconds` from now, or time_point::max()
/// (no deadline) for a limit that is not positive, is NaN, or is 1e9 s
/// (about 32 years) or more.  Converting a longer limit to the clock's
/// int64 nanoseconds would overflow past about 292 years, which is
/// undefined and in practice lands the deadline in the past.
inline std::chrono::steady_clock::time_point deadlineAfter(double seconds) {
  using Clock = std::chrono::steady_clock;
  if (!(seconds > 0.0) || seconds >= 1e9) return Clock::time_point::max();
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

}  // namespace eblocks

#endif  // EBLOCKS_CORE_DEADLINE_H_
