"""
Finding unbiased bases by numerical search
==========================================

No closed form is needed to find small families: move one unitary per
basis, whose columns are the basis vectors, and drive the Gram matrix of
their projectors to its target by descent.  Restarts are seeded
deterministically, so runs are exactly reproducible.
"""

from mubkit import SearchConfig, run_search, verify_family

cfg = SearchConfig(dim=2, num_bases=3, restarts=20, seed=42)
result = run_search(cfg)

print(f"converged: {result.converged}")
print(f"best objective: {result.best_objective:.3e} (target {cfg.target_residual:.0e})")
print(f"restarts used: {result.restarts_used}, iterations: {result.iterations_used}")

# The search returns its family as projectors, so the usual certificate
# applies directly.
report = verify_family(result.best_family, tolerance=1e-6)
print(report.summary())

# Re-running with the same config reproduces the identical family,
# bit for bit.
again = run_search(cfg)
print(f"\nrun-to-run objective match: {result.best_objective == again.best_objective}")
print(f"per-restart finals: {[f'{f:.2e}' for f in result.history]}")
