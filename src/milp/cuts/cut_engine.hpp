// Cutting-plane engine: the root separation loop and its cut hygiene
// (normalization, sound coefficient dropping, violation re-measurement,
// deduplication).
//
// Ownership of the search stays with branch & bound; this engine only
// mutates the problem it is handed — always a working copy, appended
// through MilpProblem::add_rows, so frozen cache bases and the caller's
// problem are never touched and stamped-out encodings stay valid.
#pragma once

#include <cstddef>
#include <vector>

#include "milp/cuts/cut_generator.hpp"
#include "solver/lp_backend.hpp"

namespace dpv::milp::cuts {

/// Outcome of the root separation loop.
struct RootCutReport {
  std::size_t rounds = 0;         ///< separation rounds actually run
  std::size_t cuts_added = 0;     ///< rows appended across all rounds
  std::size_t cuts_aged_out = 0;  ///< appended rows later removed by aging
  std::size_t cuts_live = 0;      ///< cut rows still in the problem on return
  /// Warm re-solves of the separation loop itself (resolve calls that
  /// actually ran from the start basis or the padded incumbent basis).
  std::size_t warm_rounds = 0;
  /// True when `lp_options.run_control` expired during separation: the
  /// loop stopped between rounds (or mid-solve), keeping every cut
  /// already appended — all sound — and the search carries on under
  /// whatever deadline budget remains.
  bool deadline_expired = false;
  /// LP work spent separating (merged into the search's stats);
  /// `root_warm_starts` is 1 when round 0 ran warm from `start`.
  solver::SolverStats solver_stats;
  /// Optimal basis of round 0's LP (the problem as handed in, before
  /// any separated row); empty when round 0 did not solve to optimality.
  /// Delta re-certification harvests it (see truncate_basis).
  lp::SimplexBasis first_basis;
  /// The basis the loop stopped on, valid for the problem on return: the
  /// last optimum when no row changed after it, else the incumbent
  /// padded with the logicals of the rows appended since. The search's
  /// root node starts from it instead of solving cold. Empty when no
  /// round ran or the first one did not solve.
  lp::SimplexBasis basis;
  /// Generator provenance of each live cut, aligned with the last
  /// `cuts_live` rows of the problem on return ("relu-split" or
  /// "gomory-mi"). Harvesting reads this so delta re-certification can
  /// recycle only cut families whose validity survives a weight change.
  std::vector<const char*> live_sources;
};

/// Runs up to `options.root_rounds` rounds of root-node separation on
/// `problem`: solve the relaxation, generate ReLU-split and Gomory cuts
/// for the fractional optimum, sanitize + dedup, append the 32 most
/// violated through MilpProblem::add_rows, repeat. Stops early when the
/// root is integral, infeasible, unsolved, or a round yields nothing
/// new.
///
/// Round 0 solves from `start` (a basis of `problem` as handed in; cold
/// when it is empty, does not fit or is singular). Every later round
/// re-solves from the previous round's optimal basis padded with the
/// new cut logicals (block-triangular, so the basis stays valid and
/// dual feasible; the dual simplex only repairs the violated cut rows),
/// and the report hands the basis it stopped on to the search's root.
/// With `options.root_age_limit > 0`, cuts that stop binding for that
/// many consecutive rounds are removed again via
/// MilpProblem::remove_rows — dead cuts would otherwise tax every node
/// re-solve of the search. An aged-out cut stays in the dedup set and
/// is never re-added.
RootCutReport run_root_cuts(MilpProblem& problem, const CutOptions& options,
                            const lp::SimplexOptions& lp_options,
                            double integrality_tolerance, lp::SimplexBasis start = {});

/// Pads `basis` (over `structural` columns and its own rows) to `rows`
/// rows, each added row's logical basic: a valid basis of the problem
/// with those rows appended, dual feasible when `basis` was.
void pad_basis(lp::SimplexBasis& basis, std::size_t structural, std::size_t rows);

/// Cuts `basis` back to the first `rows` rows of its problem, dropping
/// the logicals of the rows past them. False (and `basis` unusable)
/// when one of those logicals is nonbasic: the rest would not be square.
bool truncate_basis(lp::SimplexBasis& basis, std::size_t structural, std::size_t rows);

/// Cleans one candidate in place: merges duplicate variables, scales
/// the row to unit inf-norm, drops near-zero coefficients by soundly
/// padding the rhs with the dropped term's worst-case box activity,
/// then re-measures the violation at `values`. Returns false (cut must
/// be discarded) on a violation below kMinCutViolation, a max/min
/// coefficient ratio above 1e7, or non-finite data.
bool sanitize_cut(const MilpProblem& problem, const std::vector<double>& values,
                  Cut& cut);

}  // namespace dpv::milp::cuts
