"""
Dimension six: what search can and cannot find
==============================================

Six is not a prime power, so no closed-form complete family is known.
Search still finds three unbiased bases easily.  Asking for a fourth
hits a stubborn residual floor, consistent with the widely held belief
that three is the maximum in dimension six.  Every iterate is a set of
orthonormal bases (one unitary per basis), so the floor is a genuine
obstruction to unbiasedness, not a mixed-state artifact.
"""

import time

from mubkit import SearchConfig, run_search, verify_family

# Three bases: the first restart converges, in tens of iterations.
cfg3 = SearchConfig(dim=6, num_bases=3, restarts=100, seed=0, target_residual=1e-12)
start = time.perf_counter()
result3 = run_search(cfg3)
print(
    f"3 bases: objective {result3.best_objective:.2e} after "
    f"{result3.restarts_used} restart(s), {time.perf_counter() - start:.1f} s"
)
print(verify_family(result3.best_family, tolerance=1e-5).summary())

# Four bases: same machinery, same budget per restart, very different
# outcome.  The objective stalls near 5e-2, far above the convergence
# target; the result is reported honestly (converged=False) with the
# floor reached.
cfg4 = SearchConfig(
    dim=6, num_bases=4, restarts=4, seed=0, max_iterations=3000, target_residual=1e-12
)
start = time.perf_counter()
result4 = run_search(cfg4)
print(
    f"\n4 bases: converged={result4.converged}, best objective "
    f"{result4.best_objective:.3e} in {time.perf_counter() - start:.1f} s"
)
print(f"per-restart floors: {[f'{f:.2e}' for f in result4.history]}")
print("a nonzero floor here is the expected outcome, not a solver failure")
