#include "workload.hpp"

namespace perfbench {

void StageTotals::add(const dpv::verify::VerificationResult& result) {
  attack_seconds += result.attack_seconds;
  zonotope_seconds += result.zonotope_seconds;
  encode_seconds += result.encode_seconds;
  solve_seconds += result.solve_seconds;
  solver.merge(result.solver_stats);
  milp_nodes += result.milp_nodes;
  cuts_recycled += result.cuts_recycled;
  if (result.encoding.variables > 0) ++(result.encoding.from_cache ? cache_hits : cache_misses);
}

void StageTotals::report(Tracer& tracer) const {
  tracer.report("verify.attack", attack_seconds);
  tracer.report("verify.zonotope", zonotope_seconds);
  tracer.report("verify.encode", encode_seconds);
  const int solve = tracer.report("milp.solve", solve_seconds);
  tracer.report("lp.factor", solver.factor_seconds, solve);
  tracer.report("lp.pivot", solver.pivot_seconds, solve);
  tracer.count("milp.nodes", static_cast<double>(milp_nodes));
  tracer.count("milp.cuts_added", static_cast<double>(solver.cuts_added));
  tracer.count("milp.cuts_recycled", static_cast<double>(cuts_recycled));
  tracer.count("lp.iterations", static_cast<double>(solver.lp_iterations));
  tracer.count("lp.factorizations", static_cast<double>(solver.basis_factorizations));
  tracer.count("lp.recoveries",
               static_cast<double>(solver.singular_recoveries + solver.nonfinite_recoveries));
  tracer.count("verify.cache_hits", static_cast<double>(cache_hits));
  tracer.count("verify.cache_misses", static_cast<double>(cache_misses));
}

}  // namespace perfbench
