// replica.hpp — one canonical deviation solve, spelled out as the library's
// public layer calls so that a traced run can time each layer from outside.
//
// engine::DeviationEngine::solve_canonical is a single call; to split its
// time by layer the traced runs make the same computation through the calls
// it is built from (family construction, the mechanism's optimizer, the
// honest utilities). Every replica result is compared with the untimed
// reference solve, so a replica that drifted from the engine fails the run.
#pragma once

#include <cstddef>

#include "common.hpp"
#include "engine/deviation_engine.hpp"

namespace e2e {

/// Solve `canon` through the layer calls, recording the spans
/// engine.solve > {game.family, game.optimize, bd.honest}.
[[nodiscard]] ringshare::game::DeviationOptimum replica_solve(
    Tracer& tracer, const ringshare::engine::CanonicalTask& canon,
    const ringshare::game::DeviationOptions& options);

/// A separate game::find_structure_partition call on a fresh copy of the
/// task's family (span game.partition_probe). Returns the number of
/// breakpoints that are isolating brackets rather than exact roots. Call it
/// only for BD tasks: the partition is the BD optimizer's first stage.
std::size_t partition_probe(Tracer& tracer,
                            const ringshare::engine::CanonicalTask& canon,
                            const ringshare::game::DeviationOptions& options);

}  // namespace e2e
