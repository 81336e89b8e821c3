// batch_process.cpp — out-of-line instantiations of the batched engine for
// the canonical spaces, so every bench/test/example shares one optimized
// copy instead of re-instantiating the block loops per translation unit.
#include "core/batch_process.hpp"

namespace geochoice::core {

template ProcessResult run_batch_process<spaces::RingSpace>(
    const spaces::RingSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const BatchOptions&, parallel::ThreadPool*, BatchScratch<double>*);
template ProcessResult run_batch_process<spaces::TorusSpace>(
    const spaces::TorusSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const BatchOptions&, parallel::ThreadPool*,
    BatchScratch<geometry::Vec2>*);
template ProcessResult run_batch_process<spaces::UniformSpace>(
    const spaces::UniformSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const BatchOptions&, parallel::ThreadPool*,
    BatchScratch<spaces::BinIndex>*);

}  // namespace geochoice::core
