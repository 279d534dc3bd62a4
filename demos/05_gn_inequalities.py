"""Probe the discrete interpolation inequalities behind the a priori bounds.

Three things worth seeing once:

  * the interpolation exponent a(p, q, r, n) in closed form, including the
    step-set index tuples the entropy estimates actually use
  * single-field left/right ratios with C = 1; the first form's right side
    is ||grad f||_r^a ||f||_q^(1-a) + ||f||_s, so any ratio <= C certifies
    the inequality with constant C
  * ensemble sup-ratio constant estimates, stable under grid refinement

Run:  python3 demos/05_gn_inequalities.py
"""

import math

import numpy as np

from fluxks import (
    FieldNorms,
    GN2Exponents,
    GNExponents,
    GridFunction,
    build_grid,
    density_step_set,
    estimate_constants,
    gn2_ratio,
    gn_exponent,
    gn_ratio,
    signal_grad_step_set,
    signal_l2_step_set,
)


def main() -> None:
    print("interpolation exponent a = (1/q - 1/p) / (1/q + 1/n - 1/r):")
    for p, q, r, n in [(4.0, 2.0, 2.0, 1), (6.0, 2.0, 2.0, 3), (math.inf, 1.0, 2.0, 1)]:
        print(f"  p={p:g} q={q:g} r={r:g} n={n}   a = {gn_exponent(p, q, r, n):.6f}")
    print()

    print("step-set index tuples for (n=1, theta=2, p=1.5), witnesses q1=1.5, q2=3:")
    for name, s in [
        ("density-step", density_step_set(1, 1.5, 1.5)),
        ("signal-l2   ", signal_l2_step_set(1, 2.0, 1.5)),
        ("signal-grad ", signal_grad_step_set(1, 2.0, 3.0)),
    ]:
        print(
            f"  {name}  p={s.p_hat:g} q={s.q_hat:g} r={s.r_hat:g} "
            f"s={s.s_hat:g}  a = {s.a:.6f}"
        )
    print()

    g = build_grid("cartesian-1d", extents=(1.0,), cells=(256,))
    x = g.axis_centers(0)
    cos = GridFunction(g, np.cos(math.pi * x))
    one_plus = GridFunction(g, 1.0 + cos.values)
    all2_first = GNExponents(p_hat=2.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    all2_second = GN2Exponents(p_hat=2.0, q_hat=2.0, r_hat=2.0, s_hat=2.0, n=1)
    print("single fields, all indices 2 (first form a = 0, second form b = 1/2):")
    print(
        f"  gn_ratio(1 + cos)  = {gn_ratio(FieldNorms(one_plus), all2_first):.6f}   "
        "(a = 0: right side is exactly 2 ||f||_2)"
    )
    print(f"  gn2_ratio(cos)     = {gn2_ratio(FieldNorms(cos), all2_second):.6f}")
    print(f"  pi/(pi + 2)        = {math.pi / (math.pi + 2):.6f}   (continuum value)")
    print()

    print("ensemble constant estimates, 200 members, grid doubling:")
    exps = signal_grad_step_set(1, 2.0, 3.0)
    for cells in (128, 256, 512):
        gg = build_grid("cartesian-1d", extents=(1.0,), cells=(cells,))
        est = estimate_constants(gg, (exps,), (all2_second,), size=200, seed=0)
        print(
            f"  {cells:4d} cells   C_gn {est.gn[0]:.6f}   C_gn2 {est.gn2[0]:.6f}   "
            f"C_poincare {est.poincare:.6f}"
        )


if __name__ == "__main__":
    main()
