#include "geometry/owner_kernel.hpp"

#include <stdexcept>
#include <string>

namespace geochoice::geometry {

Kernel batch_kernel() noexcept {
  static const Kernel kernel = [] {
#if GEOCHOICE_AVX512_KERNELS
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512dq")) {
      return Kernel::kAvx512;
    }
#endif
    return Kernel::kScalar;
  }();
  return kernel;
}

void require_kernel(Kernel kernel, const char* caller) {
  if (kernel == Kernel::kAvx512 && batch_kernel() != Kernel::kAvx512) {
    throw std::invalid_argument(std::string(caller) +
                                ": this CPU lacks AVX-512 F/VL/DQ");
  }
}

}  // namespace geochoice::geometry
