#include "util/threadbudget.hpp"

#include <cstdlib>
#include <string>
#include <thread>

namespace msim {

ThreadBudget& ThreadBudget::process() {
  static ThreadBudget budget{[] {
    if (const char* env = std::getenv("MSIM_THREADS")) {
      const int n = std::atoi(env);
      if (n > 0) return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
  }()};
  return budget;
}

}  // namespace msim
