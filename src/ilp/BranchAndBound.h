//===- ilp/BranchAndBound.h - MILP branch & bound ----------------*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Branch & bound over the LP relaxation, with a wall-clock budget. The
/// paper allots CPLEX 20 seconds per candidate II and relaxes the II by
/// 0.5% on timeout (Section V); IlpScheduler drives this solver through
/// the same loop. An incumbent can be injected (from the heuristic
/// scheduler) so the search starts with a bound and, for pure
/// feasibility problems, can return immediately.
///
/// The search is a serial depth-first dive over an explicit LIFO stack:
/// of the two children of a node, the side nearer the fractional value
/// is explored first. Every node carries its parent's optimal basis:
/// bound changes leave the basis dual feasible, so the child's
/// relaxation is a few dual simplex pivots instead of a solve from
/// scratch (Simplex.h). Every subproblem carries its branch path as a
/// node id: among equal-objective incumbents the lexicographically
/// smallest path wins. Node, simplex-iteration and wall-clock budgets
/// cut the search.
///
//===----------------------------------------------------------------------===//

#ifndef SGPU_ILP_BRANCHANDBOUND_H
#define SGPU_ILP_BRANCHANDBOUND_H

#include "ilp/Simplex.h"

#include <optional>

namespace sgpu {

/// Knobs for the MILP search.
struct MilpOptions {
  double TimeBudgetSeconds = 2.0;  ///< Wall-clock budget (paper: 20 s).
  int MaxNodes = 200000;           ///< Branch & bound node cap.
  int LpIterationLimit = 50000;    ///< Simplex iteration cap per node.
  double IntegralityTol = 1e-6;
  /// Slack when pruning a node whose relaxation bound cannot beat the
  /// incumbent: prune when bound >= incumbent - BoundPruneTol.
  double BoundPruneTol = 1e-9;
  /// Stop at the first integral feasible solution (the paper's
  /// formulation "is a constraint problem, rather than an optimization
  /// problem" — Section IV-B).
  bool StopAtFirstFeasible = true;
  /// Warm-start basis for the root relaxation (e.g. the II search's
  /// seed solve at MII); empty means a cold root. Children always
  /// inherit their parent's final basis regardless.
  SimplexBasis WarmBasis;
};

/// Result of a MILP solve.
struct MilpResult {
  enum class Status : uint8_t {
    Optimal,       ///< Proven optimal (or feasible when feasibility-only).
    Feasible,      ///< Incumbent found but search was cut short.
    Infeasible,    ///< Proven infeasible.
    BudgetExceeded ///< No incumbent before hitting a limit.
  };

  Status Outcome = Status::BudgetExceeded;
  std::vector<double> X;
  double Objective = 0.0;
  int NodesExplored = 0;
  double Seconds = 0.0;

  // Solver-core telemetry.
  int LpSolves = 0;               ///< LP relaxations solved.
  long long SimplexIterations = 0; ///< Simplex iterations (flips included).
  long long Pivots = 0;           ///< Simplex basis changes.
  long long WarmLpStarts = 0;     ///< Node LPs warm-started (incl. repaired).

  bool hasSolution() const {
    return Outcome == Status::Optimal || Outcome == Status::Feasible;
  }
};

/// Solves \p LP to integrality. \p Incumbent, when given and feasible,
/// seeds the search (and satisfies StopAtFirstFeasible immediately).
MilpResult solveMilp(LinearProgram LP, const MilpOptions &Options = {},
                     const std::optional<std::vector<double>> &Incumbent =
                         std::nullopt);

} // namespace sgpu

#endif // SGPU_ILP_BRANCHANDBOUND_H
