"""Entropy functionals and per-time diagnostic records.

Two Lyapunov-type quantities are tracked along a run:

* ``F1 = sign(q1 - 1) * int u^q1 + c * int v^2`` -- the density/signal pair
  whose dissipation inequality certifies the L^q window;
* ``F2 = int u^q2 + int |grad v|^2`` -- the density/signal-gradient pair.

``F2`` always decomposes exactly as ``uq[q2] + gradv_l2`` of the same record,
because all three numbers come from one quadrature. Gradient integrals use the
face-component quadrature of :func:`fluxks.grid.gradient_lp_norm`; the
dissipation integral ``int u^(q-2) |grad u|^2`` shares it, with face values of
``u`` averaged arithmetically and floored to keep negative powers finite.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .grid import (
    GridFunction,
    face_quadrature_weights,
    faces_lp_norm,
    gradient_lp_norm,
    integrate,
    laplacian_values,
    lp_norm,
    measured_gradient_faces,
    _slice_axis,
)
from .model import ModelParams
from .regimes import RegimeSpec, audit, s_rule

if TYPE_CHECKING:  # pragma: no cover
    from .stepper import SimState

# floor for face-averaged density inside negative powers
FACE_AVERAGE_FLOOR = 1e-12
# the default weight c of int v^2 in F1 (the run config's monitors.c_f1)
DEFAULT_C_F1 = 1.0


@dataclass(frozen=True)
class MonitorSettings:
    """The ``monitors`` section: the functional indices and the F1 weight of
    :func:`record`.  An index left ``None`` is picked by :meth:`resolve`, whose
    result :func:`record` reads.  ``q_set`` is kept as sorted, distinct floats."""

    q_set: tuple[float, ...] | None = None
    s: float | None = None
    q_f1: float | None = None
    q_f2: float | None = None
    c_f1: float = DEFAULT_C_F1

    def __post_init__(self) -> None:
        if self.q_set is not None:
            if not all(q > 0.0 for q in self.q_set):
                raise ValueError(f"q_set entries must be positive, got {list(self.q_set)}")
            object.__setattr__(self, "q_set", tuple(sorted(set(float(q) for q in self.q_set))))
        if self.s is not None and not self.s >= 1.0:
            raise ValueError(f"s must be >= 1, got {self.s}")
        # F1's sign factor covers q_f1 in (0, 1), where the audit's witness may lie
        if self.q_f1 is not None and not (self.q_f1 > 0.0 and self.q_f1 != 1.0):
            raise ValueError(f"q_f1 must be > 0 and != 1, got {self.q_f1}")
        if self.q_f2 is not None and not self.q_f2 > 1.0:
            raise ValueError(f"q_f2 must exceed 1, got {self.q_f2}")
        if not self.c_f1 >= 0.0:
            raise ValueError(f"c_f1 must be >= 0, got {self.c_f1}")

    def resolve(self, params: ModelParams) -> "MonitorSettings":
        """These settings with each unset index picked by rule for a run of
        ``params``: ``s`` by the s-rule (``inf`` on the max-norm branch),
        ``q_f2`` and ``q_f1`` by the regime audit's entropy witnesses, else 2
        and ``q_f2``, and ``q_set`` as ``{q_f1, q_f2, 2}`` without 1.  The F1
        witness may lie in (0, 1), where F1's sign factor covers it; the picks
        pass the checks of values set by hand."""
        q_set, s, q_f1, q_f2 = self.q_set, self.s, self.q_f1, self.q_f2
        if s is None:
            s = s_rule(params.n, params.p, params.theta).value
        if q_f2 is None or q_f1 is None or q_set is None:
            # with n*theta <= 1 there is no critical exponent to audit, and no route
            aud = None
            if params.n * params.theta > 1.0:
                aud = audit(RegimeSpec(n=params.n, theta=params.theta, p=params.p))
            q_entropy = aud.chosen_q if aud is not None and aud.route == "entropy" else None
            if q_f2 is None:
                q_f2 = q_entropy if q_entropy is not None and q_entropy > 1.0 else 2.0
            if q_f1 is None:
                q_f1 = aud.chosen_q_f1 if aud is not None and aud.chosen_q_f1 is not None else q_f2
            if q_set is None:
                q_set = tuple(q for q in (q_f1, q_f2, 2.0) if q != 1.0)
        return replace(self, q_set=q_set, s=s, q_f1=q_f1, q_f2=q_f2)


@dataclass(frozen=True)
class FunctionalRecord:
    """Diagnostics at one time.  ``uq`` and ``dissip_u`` map q to the
    corresponding integral; ``v_l2``/``gradv_l2``/``gradv_ls``/``lap_v_l2``
    are the integrals (not roots); ``v_w1s`` is the Sobolev norm itself.

    The scalar fields, in declaration order, are the fixed CSV columns; each
    q-indexed field follows with one column per q, named by its
    ``csv_prefix``."""

    t: float
    mass: float
    uq: Mapping[float, float] = field(metadata={"csv_prefix": "uq"})
    u_linf: float
    v_l2: float
    gradv_l2: float
    gradv_ls: float
    v_w1s: float
    lap_v_l2: float
    dissip_u: Mapping[float, float] = field(metadata={"csv_prefix": "dissip"})
    F1: float
    F2: float
    clamped_mass_cumulative: float

    def __post_init__(self) -> None:
        entries = [(name, getattr(self, name)) for name in CSV_SCALAR_COLUMNS]
        for name, _ in _Q_FIELDS:
            entries += [(f"{name}[{q}]", val) for q, val in getattr(self, name).items()]
        for label, val in entries:
            if not math.isfinite(val):
                raise ValueError(f"record at t={self.t}: {label} is not finite ({val})")
        # every entry but t, F1 and F2 integrates a nonnegative integrand
        for label, val in entries:
            if val < 0.0 and label not in ("t", "F1", "F2"):
                raise ValueError(f"record at t={self.t}: {label} must be >= 0, got {val}")


# the scalar fields in declaration order: the fixed CSV columns, and the
# entries that every record checks along with its q-indexed ones
CSV_SCALAR_COLUMNS = tuple(
    f.name for f in fields(FunctionalRecord) if "csv_prefix" not in f.metadata
)
# (field name, CSV column prefix) of the q-indexed fields, in column order
_Q_FIELDS = tuple(
    (f.name, f.metadata["csv_prefix"])
    for f in fields(FunctionalRecord)
    if "csv_prefix" in f.metadata
)


def density_integral(u: GridFunction, q: float) -> float:
    """``int u^q`` (cell quadrature); ``q > 0`` required."""
    if q <= 0.0:
        raise ValueError(f"density integral requires q > 0, got {q}")
    return float(np.sum(u.values**q * u.grid.cell_weights))


def entropy_F1(u: GridFunction, v: GridFunction, q: float, c: float) -> float:
    """``sign(q-1) * int u^q + c * int v^2``.

    Raises:
        ValueError: ``q = 1`` (the sign is undefined there) or ``c < 0``.
    """
    return _f1(density_integral(u, q), float(np.sum(v.values**2 * v.grid.cell_weights)), q, c)


def _f1(uq: float, v_l2: float, q: float, c: float) -> float:
    # entropy_F1 from its integrals int u^q and int v^2
    if q == 1.0:
        raise ValueError("entropy_F1 requires q != 1")
    if c < 0.0:
        raise ValueError(f"entropy_F1 requires c >= 0, got {c}")
    return (1.0 if q > 1.0 else -1.0) * uq + c * v_l2


def entropy_F2(u: GridFunction, v: GridFunction, q: float) -> float:
    """``int u^q + int |grad v|^2``.

    Raises:
        ValueError: ``q <= 1``.
    """
    if q <= 1.0:
        raise ValueError(f"entropy_F2 requires q > 1, got {q}")
    return density_integral(u, q) + gradient_lp_norm(v, 2.0) ** 2


def dissipation_u(u: GridFunction, q: float) -> float:
    """``int u^(q-2) |grad u|^2`` over faces.

    Face densities are arithmetic means of the adjacent cells floored at
    ``FACE_AVERAGE_FLOOR``; gradients and weights follow the measurement
    quadrature (one-sided boundary estimates, half-cell boundary weights).
    """
    if q <= 0.0:
        raise ValueError(f"dissipation requires q > 0, got {q}")
    return _dissipation(_dissipation_parts(u, measured_gradient_faces(u.grid, u.values)), q)


def _dissipation_parts(u: GridFunction, grads) -> list:
    # per axis: the floored face density, the squared face gradient and the
    # face weights of dissipation_u, given measurement face gradients of u
    grid = u.grid
    nd = grid.n_axes
    parts = []
    for a in range(nd):
        left = u.values[_slice_axis(nd, a, slice(None, -1))]
        right = u.values[_slice_axis(nd, a, slice(1, None))]
        u_face = np.empty(grid.face_shape(a))
        u_face[_slice_axis(nd, a, slice(1, -1))] = 0.5 * (left + right)
        u_face[_slice_axis(nd, a, slice(0, 1))] = u.values[_slice_axis(nd, a, slice(0, 1))]
        u_face[_slice_axis(nd, a, slice(-1, None))] = u.values[_slice_axis(nd, a, slice(-1, None))]
        u_face = np.maximum(u_face, FACE_AVERAGE_FLOOR)
        parts.append((u_face, grads[a] ** 2, face_quadrature_weights(grid, a)))
    return parts


def _dissipation(parts: list, q: float) -> float:
    # dissipation_u at index q from the axis parts from _dissipation_parts
    return sum(float(np.sum(u_face ** (q - 2.0) * g2 * fw)) for u_face, g2, fw in parts)


def record(
    state: "SimState", monitors: MonitorSettings, lap_v: np.ndarray | None = None
) -> FunctionalRecord:
    """Evaluate every tracked functional at one state, with the indices and
    the F1 weight ``c_f1`` of ``monitors`` as :meth:`MonitorSettings.resolve`
    leaves them; the clamped mass is the state's.  ``s`` may be ``inf``: then
    ``gradv_ls`` is the max face-gradient magnitude and ``v_w1s`` the max of
    it and ``||v||_inf`` (the max-norm proxy).  ``lap_v`` is the Laplacian of
    ``v`` when the caller already has it (the stepper's solver certified it);
    it is computed otherwise.

    Raises:
        ValueError: an index of ``monitors`` is ``None``.
    """
    qs, s, q_f1, q_f2 = monitors.q_set, monitors.s, monitors.q_f1, monitors.q_f2
    if None in (qs, s, q_f1, q_f2):
        raise ValueError(f"unset index in {monitors}: use MonitorSettings.resolve first")
    u, v = state.u, state.v

    # one measurement gradient per field serves every index
    grads_u = measured_gradient_faces(u.grid, u.values)
    grads_v = measured_gradient_faces(v.grid, v.values)
    uq = {q: density_integral(u, q) for q in qs}
    dissip_parts = _dissipation_parts(u, grads_u)
    dissip = {q: _dissipation(dissip_parts, q) for q in qs}
    gradv_l2 = faces_lp_norm(v.grid, grads_v, 2.0) ** 2
    if math.isinf(s):
        gradv_ls = faces_lp_norm(v.grid, grads_v, math.inf)
        v_w1s = max(lp_norm(v, math.inf), gradv_ls)
    else:
        gradv_ls = faces_lp_norm(v.grid, grads_v, s) ** s
        v_w1s = (lp_norm(v, s) ** s + gradv_ls) ** (1.0 / s)

    # F1 and F2 reuse the integrals of this record
    uq_f1, uq_f2 = (uq[q] if q in uq else density_integral(u, q) for q in (q_f1, q_f2))
    v_l2 = float(np.sum(v.values**2 * v.grid.cell_weights))
    if lap_v is None:
        lap_v = laplacian_values(v.grid, v.values)
    return FunctionalRecord(
        t=state.t,
        mass=integrate(u),
        uq=uq,
        u_linf=lp_norm(u, math.inf),
        v_l2=v_l2,
        gradv_l2=gradv_l2,
        gradv_ls=gradv_ls,
        v_w1s=v_w1s,
        lap_v_l2=float(np.sum(lap_v**2 * v.grid.cell_weights)),
        dissip_u=dissip,
        F1=_f1(uq_f1, v_l2, q_f1, monitors.c_f1),
        F2=uq_f2 + gradv_l2,
        clamped_mass_cumulative=state.clamped_mass_cumulative,
    )


def _format_q(q: float) -> str:
    return repr(q) if q != int(q) else str(int(q))


def csv_columns(q_set: Iterable[float]) -> list[str]:
    qs = sorted(set(float(q) for q in q_set))
    cols = list(CSV_SCALAR_COLUMNS)
    for _, prefix in _Q_FIELDS:
        cols += [f"{prefix}_{_format_q(q)}" for q in qs]
    return cols


def records_to_csv(records: list[FunctionalRecord], meta_comment: str | None = None) -> str:
    """Render records as CSV text: fixed column order, shortest-roundtrip floats."""
    if not records:
        raise ValueError("no records to render")
    qs = sorted(records[0].uq.keys())
    out = io.StringIO()
    if meta_comment is not None:
        for line in meta_comment.splitlines():
            out.write(f"# {line}\n")
    out.write(",".join(csv_columns(qs)) + "\n")
    for rec in records:
        row = [getattr(rec, name) for name in CSV_SCALAR_COLUMNS]
        for name, _ in _Q_FIELDS:
            row += [getattr(rec, name)[q] for q in qs]
        out.write(",".join(repr(float(x)) for x in row) + "\n")
    return out.getvalue()


def write_records_csv(
    records: list[FunctionalRecord], path, meta_comment: str | None = None
) -> None:
    text = records_to_csv(records, meta_comment)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
