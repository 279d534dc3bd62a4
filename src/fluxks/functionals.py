"""Entropy functionals and per-time diagnostic records.

Two Lyapunov-type quantities are tracked along a run:

* ``F1 = sign(q1 - 1) * int u^q1 + c * int v^2`` -- the density/signal pair
  whose dissipation inequality certifies the L^q window;
* ``F2 = int u^q2 + int |grad v|^2`` -- the density/signal-gradient pair.

Every integral of a record comes from one :class:`fluxks.grid.FieldNorms`
for ``u`` and one for ``v``: the Lebesgue and gradient integrals, and the
dissipation integral ``int u^(q-2) |grad u|^2`` of the inequality
``dF/dt + c F <= C`` that the monitors check.  ``F1`` and ``F2`` are formed
from the record's own integrals, so ``F1 = sign(q1 - 1) * uq[q1] + c * v_l2``
and ``F2 = uq[q2] + gradv_l2`` hold exactly, as floats.  :func:`sample`
gives the five fields of a record that a sweep point reads, with the same bits.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .grid import FieldNorms, integrate
from .model import ModelParams
from .regimes import RegimeSpec, audit, s_rule
from .runtime import write_atomic

if TYPE_CHECKING:  # pragma: no cover
    from .stepper import SimState

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
        _check_entries(self.t, entries)


@dataclass(frozen=True)
class Sample:
    """The five fields of a :class:`FunctionalRecord` that a sweep point reads,
    with the same values and checks (:func:`sample`)."""

    t: float
    mass: float
    u_linf: float
    gradv_l2: float
    F2: float

    def __post_init__(self) -> None:
        _check_entries(self.t, [(f.name, getattr(self, f.name)) for f in fields(self)])


def _check_entries(t: float, entries: list[tuple[str, float]]) -> None:
    for label, val in entries:
        if not math.isfinite(val):
            raise ValueError(f"record at t={t}: {label} is not finite ({val})")
    # every entry but t, F1 and F2 integrates a nonnegative integrand
    for label, val in entries:
        if val < 0.0 and label not in ("t", "F1", "F2"):
            raise ValueError(f"record at t={t}: {label} must be >= 0, got {val}")


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


def _sampled(state: "SimState", u: FieldNorms, v: FieldNorms, q_f2: float) -> dict:
    # the fields that a record and a sample share, from one pair of norms
    return dict(t=state.t, mass=integrate(state.grid, state.u), u_linf=u.lp(math.inf),
                gradv_l2=v.grad_integral(2.0), F2=u.integral(q_f2) + v.grad_integral(2.0))


def record(state: "SimState", monitors: MonitorSettings) -> FunctionalRecord:
    """Evaluate every tracked functional at one state, with the indices and
    the F1 weight ``c_f1`` of ``monitors`` as :meth:`MonitorSettings.resolve`
    leaves them; the clamped mass is the state's.  ``s`` may be ``inf``: then
    ``gradv_ls`` is the max face-gradient magnitude and ``v_w1s`` the max of
    it and ``||v||_inf`` (the max-norm proxy).

    Raises:
        ValueError: an index of ``monitors`` is ``None``.
    """
    qs, s, q_f1, q_f2 = monitors.q_set, monitors.s, monitors.q_f1, monitors.q_f2
    if None in (qs, s, q_f1, q_f2):
        raise ValueError(f"unset index in {monitors}: use MonitorSettings.resolve first")
    u, v = FieldNorms(state.grid, state.u), FieldNorms(state.grid, state.v)
    dissip_u = {q: u.dissipation_integral(q) for q in qs}
    if math.isinf(s):
        gradv_ls = v.grad_lp(math.inf)
        v_w1s = max(v.lp(math.inf), gradv_ls)
    else:
        gradv_ls = v.grad_integral(s)
        v_w1s = (v.integral(s) + gradv_ls) ** (1.0 / s)
    return FunctionalRecord(
        **_sampled(state, u, v, q_f2),
        uq={q: u.integral(q) for q in qs},
        v_l2=v.integral(2.0),
        gradv_ls=gradv_ls,
        v_w1s=v_w1s,
        lap_v_l2=v.lap_integral(),
        dissip_u=dissip_u,
        F1=(1.0 if q_f1 > 1.0 else -1.0) * u.integral(q_f1) + monitors.c_f1 * v.integral(2.0),
        clamped_mass_cumulative=state.clamped_mass_cumulative,
    )


def sample(state: "SimState", monitors: MonitorSettings) -> Sample:
    """The fields of :func:`record` that a sweep point reads, the same bits
    at a fraction of the cost: no dissipation, Laplacian or F1 integral.

    Raises:
        ValueError: ``monitors.q_f2`` is ``None``.
    """
    if monitors.q_f2 is None:
        raise ValueError(f"unset index in {monitors}: use MonitorSettings.resolve first")
    u, v = FieldNorms(state.grid, state.u), FieldNorms(state.grid, state.v)
    return Sample(**_sampled(state, u, v, monitors.q_f2))


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
    """Write :func:`records_to_csv` to ``path`` as
    :func:`fluxks.runtime.write_atomic` does."""
    write_atomic(Path(path), records_to_csv(records, meta_comment))
