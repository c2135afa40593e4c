"""Core contribution: MAXR solvers and the IMCAF framework.

MAXR (Definition 3 of the paper): given a collection ``R`` of RIC
samples, find ``k`` seeds maximizing the number of influenced samples —
equivalently the estimate ``ĉ_R``. The solvers implemented here are the
paper's three algorithms plus the compound MB:

- :class:`~repro.core.ubg.UBG` — Upper Bound Greedy (sandwich with the
  submodular ``ν_R``), ratio ``(ĉ(S_ν)/ν(S_ν))(1 - 1/e)``;
- :class:`~repro.core.maf.MAF` — Most Appearance First, ratio
  ``⌊k/h⌋ / r``;
- :class:`~repro.core.bt.BT` — bounded-threshold algorithm,
  ratio ``(1 - 1/e)/k^{d-1}`` for thresholds bounded by ``d``;
- :class:`~repro.core.bt.MB` — best of MAF and BT, ratio
  ``Θ(√((1-1/e)/r))``, tight to the inapproximability bound.

:func:`~repro.core.framework.solve_imc` wires any of them into the
stop-and-stare IMCAF loop (Algorithm 5) for an ``α(1-ε)`` guarantee
with probability ``1 - δ``.
"""

from repro.core.bt import BT, MB
from repro.core.budgeted import (
    BudgetedUBG,
    budgeted_lazy_greedy_nu,
    degree_proportional_costs,
    uniform_costs,
)
from repro.core.framework import EstimateResult, IMCResult, estimate_benefit, solve_imc
from repro.core.greedy import greedy_maxr, lazy_greedy_nu
from repro.core.maf import MAF
from repro.core.bitset_engine import BitsetCoverage
from repro.core.objective import CoverageState
from repro.core.ratios import (
    bt_ratio,
    inapproximability_bound,
    maf_ratio,
    mb_ratio,
    sandwich_ratio,
)
from repro.core.curvature import (
    NonSubmodularityProfile,
    probe_nonsubmodularity,
    submodularity_violation_rate,
    weak_submodularity_gamma,
)
from repro.core.reduction import DkSReduction, dks_to_imc, induced_edge_count
from repro.core.solution import SeedSelection
from repro.core.static_bound import StaticIMCResult, solve_imc_static
from repro.core.ubg import UBG, GreedyC

__all__ = [
    "CoverageState",
    "BitsetCoverage",
    "SeedSelection",
    "greedy_maxr",
    "lazy_greedy_nu",
    "UBG",
    "GreedyC",
    "MAF",
    "BT",
    "MB",
    "solve_imc",
    "solve_imc_static",
    "StaticIMCResult",
    "estimate_benefit",
    "IMCResult",
    "EstimateResult",
    "DkSReduction",
    "dks_to_imc",
    "induced_edge_count",
    "NonSubmodularityProfile",
    "probe_nonsubmodularity",
    "submodularity_violation_rate",
    "weak_submodularity_gamma",
    "BudgetedUBG",
    "budgeted_lazy_greedy_nu",
    "uniform_costs",
    "degree_proportional_costs",
    "maf_ratio",
    "bt_ratio",
    "mb_ratio",
    "sandwich_ratio",
    "inapproximability_bound",
]
