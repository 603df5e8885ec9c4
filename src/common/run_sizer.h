// RunSizer: capacity policy for recycled runs — vectors that keep their
// capacity from one occupant of a slot to the next (LinkLoadState's row
// runs, the Master's flow runs, view entries and per-machine rate
// vectors, ServeFront's departure lists and pushed rate vectors).
//
// A pool of runs shares one RunSizer, which remembers the widest run the
// pool has needed. A run too small for `need` grows straight to twice
// that width: under a steady load the widest need still creeps up as rare
// extremes accumulate, and the headroom keeps a warm run from meeting
// each new extreme with a reallocation. fit() also drops a run's capacity
// if that is over 4·need + 16, and grows it within the same bound, so a
// pool holds at most a constant factor over its live elements. grow()
// never drops capacity; it is for pools of one run per machine, which a
// swing in one machine's load must not churn. So a warm pool reallocates
// a run only when it meets a width past twice any it has seen, or a slot
// swings between far wider and far narrower occupants.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace ncdrf {

class RunSizer {
 public:
  // Leave `run` with capacity for `need` elements; its contents are the
  // caller's to clear or overwrite.
  template <typename T>
  void fit(std::vector<T>& run, std::size_t need) {
    const std::size_t bound = 4 * need + 16;
    if (run.capacity() > bound) run = std::vector<T>();
    reserve(run, need, bound);
  }
  template <typename T>
  void grow(std::vector<T>& run, std::size_t need) {
    reserve(run, need, std::numeric_limits<std::size_t>::max());
  }

 private:
  template <typename T>
  void reserve(std::vector<T>& run, std::size_t need, std::size_t bound) {
    widest_ = std::max(widest_, need);
    if (run.capacity() < need) run.reserve(std::min(2 * widest_, bound));
  }

  std::size_t widest_ = 0;
};

}  // namespace ncdrf
