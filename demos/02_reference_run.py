"""Integrate the canonical 1d configuration and walk through the output.

Domain [0, 1] with 256 cells, chi = 1, theta = 2, p = 1.5, eps = 1e-3,
u0 = 1 + 0.5 cos(pi x), v0 = u0^2, integrated to t = 20.  This is the same
setup the test suite pins its conservation and dissipation checks to, so
the numbers printed here should look familiar from tests/.

Run:  python3 demos/02_reference_run.py
"""

import time

from fluxks import (
    ModelParams,
    StepControls,
    build_grid,
    build_initial_data,
    check_mass,
    check_positivity,
    classify,
    simulate,
)


def main() -> None:
    grid = build_grid("cartesian-1d", extents=(1.0,), cells=(256,))
    initial = build_initial_data(
        grid, family="cosine", base=1.0, amplitude=0.5, v0_kind="u0_squared"
    )
    params = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=1)
    controls = StepControls(t_end=20.0)

    t0 = time.perf_counter()
    result = simulate(initial, params, controls, keep_states="sampled")
    wall = time.perf_counter() - t0
    print(
        f"status {result.status.value}, {result.n_steps} steps to "
        f"t = {result.records[-1].t:g}, {wall:.2f}s wall"
    )
    print(f"clamped mass over the whole run: {result.final_state.clamped_mass_cumulative:.3e}")
    print()

    print("  t        mass            u_linf      int v^2     F1          F2")
    for rec in result.records[:: max(1, len(result.records) // 8)]:
        print(
            f"  {rec.t:7.3f}  {rec.mass:.12f}  {rec.u_linf:.6f}  "
            f"{rec.v_l2:.6f}  {rec.F1:.6f}  {rec.F2:.6f}"
        )

    print()
    for verdict in (check_mass(result.records), check_positivity(result.states)):
        print(" ", verdict.summary())
    regime = classify(result.records, result.status)
    print(f"  classification: {regime.classification} ({regime.reason})")


if __name__ == "__main__":
    main()
