"""
Exact martingale decomposition on enumerable rows
=================================================

For small discrete rows the conditional-expectation martingale
M_k = E(S_n | X_1..X_k) is computed exactly on the full outcome table.
Every structural identity is asserted per outcome, and the realized slack
of the variance bound Var Q_n <= 48 eps^2 sigma_n^2 is reported.
"""

import numpy as np

import mdepclt as m

cases = [
    (m.build_model("iid-baseline"), 8),
    (m.build_model("moving-average", coeffs=(1.0, 0.5)), 7),
    (m.build_model("block-repeat", m_schedule=2), 8),
    (m.build_model("two-scale", alpha=0.3), 6),
]

for model, n in cases:
    trace = m.build_trace(model, n)
    print(f"{model.describe()}  n={n}  outcomes={trace.table.rows.shape[0]}")
    for res in m.check_structure(trace) + m.check_tower(trace):
        print(f"  {res}")
    print(f"  sum_k E dM_k^2 = {trace.q.sum():.12f}  (sigma_n^2 = {trace.sigma2:.12f})")

    eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    slack = m.check_bounds(trace, eps)[-1].detail
    print(
        f"  eps = {eps:.4f}: Var Q / (eps^2 sigma^2) = "
        f"{slack['var_q_over_eps2_sigma2']:.3f} (bound 48), "
        f"max|dM|/eps = {slack['max_dm_over_eps']:.3f} (bound 4)"
    )

    chk = m.check_truncation(trace, eps=0.5)
    print(
        f"  truncation at eps=0.5: tail E(S'')^2 = {chk.values['s_tail_second_moment']:.5f}"
        f" <= bound {chk.values['bound']:.5f} -> {'ok' if chk.passed else 'VIOLATED'}\n"
    )

print("large-n martingale hypotheses by simulation (two-scale, alpha=0.3):")
rep = m.check_hh_hypotheses(
    m.build_model("two-scale", alpha=0.3), [2**8, 2**11, 2**14], reps=2000, seed=1
)
for row in rep.rows:
    print(
        f"  n={row['n']:<6d} q95 max|dM|/sigma = {row['max_dm_q95']:.4f}   "
        f"Q/sigma^2 = {row['q_mean']:.4f} +- {row['q_sd']:.4f}"
    )
print(f"  increments vanish: {rep.max_increment_vanishes}, "
      f"quadratic variation -> 1: {rep.quadratic_variation_concentrates}")
