#include "replica.hpp"

#include <stdexcept>
#include <vector>

#include "game/breakpoints.hpp"
#include "game/mechanism.hpp"

namespace e2e {

namespace rs = ringshare;
using rs::game::DeviationKind;

namespace {

/// The one-parameter family a deviation optimizes over, and the vertices
/// whose utilities it tracks (game/deviation.cpp's choice per kind).
struct Family {
  rs::game::ParametrizedGraph graph;
  std::vector<rs::graph::Vertex> tracked;
};

Family deviation_family(const rs::engine::CanonicalTask& canon) {
  const rs::game::DeviationTask& task = canon.task;
  switch (task.kind) {
    case DeviationKind::kSybil: {
      rs::game::ParametrizedGraph graph =
          rs::game::sybil_family(canon.ring, task.vertex);
      const auto last =
          static_cast<rs::graph::Vertex>(graph.base().vertex_count() - 1);
      return Family{std::move(graph), {0, last}};
    }
    case DeviationKind::kMisreport:
      return Family{rs::game::misreport_family(canon.ring, task.vertex),
                    {task.vertex}};
    case DeviationKind::kCollusion:
      return Family{
          rs::game::collusion_family(canon.ring, task.vertex, task.partner),
          {0}};
  }
  throw std::invalid_argument("deviation_family: unknown kind");
}

}  // namespace

rs::game::DeviationOptimum replica_solve(
    Tracer& tracer, const rs::engine::CanonicalTask& canon,
    const rs::game::DeviationOptions& options) {
  const Tracer::Scope solve_span = tracer.span("engine.solve");
  const rs::game::DeviationTask& task = canon.task;
  const rs::game::Mechanism& mechanism = rs::game::mechanism(task.mechanism);

  const Family family = [&] {
    const Tracer::Scope span = tracer.span("game.family");
    return deviation_family(canon);
  }();
  const rs::game::TrackedOptimum best = [&] {
    const Tracer::Scope span = tracer.span("game.optimize");
    return mechanism.optimize(family.graph, family.tracked, options);
  }();
  const std::vector<rs::num::Rational> honest = [&] {
    const Tracer::Scope span = tracer.span("bd.honest");
    return mechanism.utilities(canon.ring);
  }();

  rs::game::DeviationOptimum out;
  out.kind = task.kind;
  out.vertex = task.vertex;
  out.partner = task.kind == DeviationKind::kCollusion ? task.partner : 0;
  out.mechanism = task.mechanism;
  out.honest_utility = honest.at(task.vertex);
  if (task.kind == DeviationKind::kCollusion)
    out.honest_utility = out.honest_utility + honest.at(task.partner);
  out.t_star = best.t_star;
  out.utility = best.utility;
  out.ratio = out.utility / out.honest_utility;
  return out;
}

std::size_t partition_probe(Tracer& tracer,
                            const rs::engine::CanonicalTask& canon,
                            const rs::game::DeviationOptions& options) {
  const Tracer::Scope span = tracer.span("game.partition_probe");
  const Family family = deviation_family(canon);
  const rs::game::StructurePartition partition =
      rs::game::find_structure_partition(family.graph, options.partition);
  std::size_t bracketed = 0;
  for (const rs::game::Breakpoint& breakpoint : partition.breakpoints)
    if (!breakpoint.exact) ++bracketed;
  return bracketed;
}

}  // namespace e2e
