"""
Which sufficient conditions hold on which rows
==============================================

Finite-grid verdicts for every condition functional across the model
catalogue.  The shared-tail row is the separating example: a Lyapunov
order works while the block criterion fails, because one window of length
m_n holds a single variable of variance m_n^2.
"""

from mdepclt.cli import DEFAULT_EPS_GRID, SWEEP_N_GRID, sweep_payload

payload = sweep_payload(SWEEP_N_GRID, DEFAULT_EPS_GRID, [3.0, 4.0])

conditions = [k for k in payload["rows"][0] if k not in ("model", "config")]
width = max(len(c) for c in conditions) + 2

print("grid 2^6..2^22, eps in", tuple(DEFAULT_EPS_GRID), "\n")
print(" " * 24 + "".join(c.ljust(width) for c in conditions))
for row in payload["rows"]:
    cells = "".join(("yes" if row[c] else "no").ljust(width) for c in conditions)
    print(row["model"].ljust(24) + cells)

print("\nno: the finite-grid verdict did not certify the condition")
