"""Check the dissipation inequalities on a live run.

F1 = sign(q1 - 1) * int u^q1 + c_f1 * int v^2 and
F2 = int u^q2 + int |grad v|^2 come with bounds of the form
dF/dt + c * F <= C  along solutions; the monitor replays the recorded
series, forms centered difference quotients, and checks them against a
calibrated C.  The witnesses q1, q2 default to the ones the
exponent audit picks for the run's (n, theta, p).

Run:  python3 demos/04_entropy_monitors.py
"""

from fluxks import (
    ModelParams,
    RegimeSpec,
    StepControls,
    audit,
    build_grid,
    build_initial_data,
    check_dissipation_inequality,
    simulate,
)


def main() -> None:
    params = ModelParams(chi=1.0, p=1.5, theta=2.0, eps=1e-3, n=1)
    rep = audit(RegimeSpec(n=1, theta=2.0, p=1.5))
    print(
        f"audit picks route {rep.route} with q_F1 = {rep.chosen_q_f1:g}, "
        f"q_F2 = {rep.chosen_q:g}"
    )

    grid = build_grid("cartesian-1d", extents=(1.0,), cells=(256,))
    initial = build_initial_data(
        grid, family="cosine", base=1.0, amplitude=0.5, v0_kind="u0_squared"
    )
    result = simulate(initial, params, StepControls(t_end=20.0))
    print(f"run: {result.status.value} after {result.n_steps} steps")
    print()

    for which in ("F1", "F2"):
        v = check_dissipation_inequality(result.records, which=which)
        d = v.details
        print(
            f"{which}: {'PASS' if v.passed else 'FAIL'}   "
            f"bound C = {d['bound']:.4f}, coverage {d['coverage']:.3f}, "
            f"worst margin {v.worst_violation:.3e} at t = {v.location:g}"
        )

    # same check on a narrow late window: transients excluded, still holds
    late = check_dissipation_inequality(result.records, which="F2", window=(10.0, 20.0))
    print(f"F2 on [10, 20]: {'PASS' if late.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
