// owner_kernel.hpp — which kernel the bulk owner searches run.
//
// ring_owner_batch (ring_arithmetic.hpp) and SpatialGrid::nearest_batch
// (spatial_grid.hpp) each have two kernels: a scalar one, which runs on
// every CPU and is the reference, and an AVX-512 one that resolves eight
// queries per step, one query per vector lane. Both searches pick their
// kernel from the one CPU check below, so a process never mixes them.
#pragma once

#include <cstdint>

// The AVX-512 kernels are compiled on x86-64 with GCC or Clang, whose
// function-level target attributes let one binary carry them beside the
// baseline code; elsewhere only the scalar kernels exist.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GEOCHOICE_AVX512_KERNELS 1
#else
#define GEOCHOICE_AVX512_KERNELS 0
#endif

namespace geochoice::geometry {

enum class Kernel : std::uint8_t { kScalar, kAvx512 };

/// The kernel the bulk owner searches run: kAvx512 on CPUs with AVX-512 F,
/// VL and DQ, else kScalar. The CPU is checked once per process.
[[nodiscard]] Kernel batch_kernel() noexcept;

/// Throws std::invalid_argument, naming `caller`, when `kernel` cannot run
/// on this CPU: kAvx512 where batch_kernel() is kScalar.
void require_kernel(Kernel kernel, const char* caller);

}  // namespace geochoice::geometry
