"""Audit the exponent algebra across a slice of parameter space.

For each (n, theta) the flux exponent p sits below, at, or above the
critical value n*theta/(n*theta - 1).  Subcritical points get a feasibility
certificate: either the two-functional entropy route (witnesses q for the
gradient functional, q for the density functional, plus the starred
interpolation exponents), or, in 1d where the entropy route's p window is
closed, the semigroup route.  Each route is decided from the closed-form
infimum of its constraints, and its witnesses sit at stated points.

Run:  python3 demos/03_regime_audit.py
"""

from fluxks import RegimeSpec, audit, critical_exponent, relative_p


def show(n: int, theta: float, fraction: float) -> None:
    p = relative_p(n, theta, fraction)
    rep = audit(RegimeSpec(n=n, theta=theta, p=p))
    head = (
        f"n={n} theta={theta:<4g} p={p:.4f} "
        f"(fraction {fraction:g} of p_c={rep.p_critical:.4f})"
    )
    if not rep.subcritical:
        print(f"{head}\n    supercritical, no certificate expected")
        return
    if not rep.feasible:
        print(f"{head}\n    subcritical but infeasible: {', '.join(rep.notes)}")
        return
    if rep.route == "entropy":
        print(
            f"{head}\n    route {rep.route}: q_F1={rep.chosen_q_f1:g} "
            f"q_F2={rep.chosen_q:g} r={rep.chosen_r:g}  "
            f"a*={rep.a_star:.4f} b*={rep.b_star:g} 2a*b*-ish={rep.condition_2ab:.4f} < 2"
        )
    else:
        print(
            f"{head}\n    route {rep.route}: q={rep.chosen_q:g} r={rep.chosen_r:g}  "
            f"contraction value {rep.condition_1d:.4f} < 1"
        )


def main() -> None:
    print("critical exponents p_c = n*theta/(n*theta - 1):")
    for n in (1, 2, 3, 5):
        row = "  ".join(
            f"theta={th:g}: {critical_exponent(n, th):.4f}" for th in (1.1, 1.5, 2.0, 4.0)
        )
        print(f"  n={n}   {row}")
    print()

    for n, theta, fraction in [
        (1, 2.0, 0.5),
        (1, 2.0, 0.9),
        (1, 2.0, 1.3),   # fraction > 1 lands above p_c on purpose
        (2, 1.5, 0.6),
        (2, 3.0, 0.95),
        (3, 1.1, 0.9),
        (5, 4.0, 0.5),
    ]:
        show(n, theta, fraction)


if __name__ == "__main__":
    main()
