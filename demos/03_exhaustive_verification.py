"""Exhaustive desk-scale verification of the threshold theorems.

Scans every labeled graph of order 7 (connected threshold) and all 2^28
of order 8 (2-connected threshold; under a second each), then audits,
on every window class of order 8, that the prescreens never hide an
over-threshold graph.
"""

from histspec import audit_prescreens, verify_corollaries, verify_theorem1, verify_theorem2

print("== connected threshold at n=7, all 2^21 labeled graphs ==")
rep = verify_theorem1(7)
print(rep.text())
print()

print("== 2-connected threshold at n=8, all 2^28 labeled graphs ==")
rep = verify_theorem2(8)
print(rep.text())
print()

print("== prescreen safety audit at n=8, every window class ==")
audit = audit_prescreens(8, "thm2")
print(audit.to_json())
print()

print("== order-only corollary caps up to n=30 ==")
rep = verify_corollaries(7, 30)
print(f"violations: {rep.violations}")
print("per-order slack of the B family against the tighter stated cap:")
for row in rep.rows:
    if row.rho_B is not None and row.n <= 14:
        print(f"  n={row.n}: rho_B={row.rho_B:.6f}, "
              f"proven cap {row.cap_B:.6f}, "
              f"tighter stated cap holds: {row.stated_B_cap_holds}")
