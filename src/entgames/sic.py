"""Superposed information cost: objective, decoupling construction, scalar bounds.

The central object is the superposition state
|Omega> = sum_xy sqrt(p_xy) |x>_X |phi_xy>_AB |y>_Y, whose registers X, A,
B, Y are positions 0 to 3 of its dims (k, dA, dB, k).  The cost objective
is I(X:BY) + I(Y:XA), each mutual information computed with the named input
register dephased.  For product input distributions, build_decoupling
constructs per-input isometries (Alice's U_x on A, Bob's V_y on B) that push
the state toward a product across the (inputs : work registers) cut, with
fidelity defects controlled by 9*delta and 81*delta.
All of it is computed from the (x, a, b, y) amplitude tensor; no density
matrix of a full state is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import DEFAULT_TOLS, _field, _integer, _table
from .games import check_distribution, is_product
from .linalg import psd_eigvalsh
from .qinfo import (
    PureState,
    clip_fidelity,
    entropy_of_spectrum,
    max_overlap_isometry,
    purification_matrix,
)


@dataclass(frozen=True)
class SuperposedState:
    """Superposition over input pairs; advice[x, y] holds the (dA, dB)
    amplitudes of the state |phi_xy> handed out on input pair (x, y)."""

    p: np.ndarray
    advice: np.ndarray
    state: PureState

    @classmethod
    def build(cls, p, advice_states) -> "SuperposedState":
        """Assemble |Omega> from a distribution and a (k, k, dA, dB) advice table
        whose states are each normalized, also on pairs of probability zero.

        The reduced (X, Y) diagonal is p_xy times each state's squared norm, so
        the norm check bounds its distance from p too.
        """
        p = np.asarray(p, dtype=float)
        k = p.shape[0]
        if p.shape != (k, k):
            raise ValueError("p must be square")
        check_distribution(p)
        adv = np.asarray(advice_states, dtype=complex)
        if adv.ndim != 4 or adv.shape[:2] != (k, k):
            raise ValueError(f"advice table shape {adv.shape} does not match p shape {p.shape}")
        norms = np.linalg.norm(adv.reshape(k, k, -1), axis=2)
        if np.abs(norms - 1.0).max() > DEFAULT_TOLS.norm:
            raise ValueError("advice states must be normalized")
        amps = np.sqrt(p)[:, None, None, :] * adv.transpose(0, 2, 3, 1)
        state = PureState(amps.reshape(-1), (k, *adv.shape[2:], k))
        return cls(p, adv, state)

    @property
    def k(self) -> int:
        return self.p.shape[0]

    def dims(self) -> tuple[int, int]:
        return self.advice.shape[2], self.advice.shape[3]


def superposed_from_dict(doc) -> SuperposedState:
    """SuperposedState of a JSON state spec (p, dims [dA, dB], and advice as
    [re, im] pairs); a malformed spec is a ValueError naming the field."""
    if not isinstance(doc, dict):
        raise ValueError("state spec must be a JSON object")
    get = partial(_field, "state spec", doc)
    p = get("p", _table)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("'p' must be a square matrix")
    k = p.shape[0]
    dims = get("dims", lambda v: [_integer(d) for d in v])
    if len(dims) != 2 or min(dims) < 1:
        raise ValueError("'dims' must be two positive integers")
    da, db = dims
    adv = get("advice", _table)
    if adv.shape != (k, k, da * db, 2):
        raise ValueError(f"'advice' must be a k x k grid of lists of {da * db} [re, im] pairs")
    states = (adv[..., 0] + 1j * adv[..., 1]).reshape(k, k, da, db)
    return SuperposedState.build(p, states)


def _holevo(s_total: float, cond: np.ndarray) -> float:
    """S(rho) - sum_x p_x S(rho_x / p_x) for rho = sum_x rho_x, given S(rho).

    cond[x] is an amplitude matrix of the unnormalized rho_x (trace p_x), so
    rho_x's spectrum is its squared singular values.  The conditional sum is
    the entropy of all those spectra together less H(p).
    """
    w = np.linalg.svd(cond, compute_uv=False) ** 2
    return s_total - entropy_of_spectrum(w.reshape(-1)) + entropy_of_spectrum(w.sum(axis=-1))


def sic_terms(omega: SuperposedState) -> tuple[float, float]:
    """(I(X:BY), I(Y:XA)), each with the corresponding input register dephased.

    With X dephased, I(X:BY) is the Holevo quantity S(rho_BY) - sum_x p_x
    S(rho_BY^x), and likewise for Y.  rho_BY and rho_XA share the spectrum of
    the (XA x BY) amplitude matrix of |Omega>; rho_BY^x is that of the (A x BY)
    slice at x, rho_XA^y that of the (XA x B) slice at y.
    """
    t = omega.state.tensor()                            # [x, a, b, y]
    k, da, db, _ = t.shape
    s_total = entropy_of_spectrum(
        np.linalg.svd(t.reshape(k * da, db * k), compute_uv=False) ** 2)
    return (_holevo(s_total, t.reshape(k, da, db * k)),
            _holevo(s_total, t.transpose(3, 0, 1, 2).reshape(k, k * da, db)))


def sic_objective(omega: SuperposedState) -> float:
    """The superposed information cost objective I(X:BY) + I(Y:XA), in bits."""
    ix, iy = sic_terms(omega)
    return ix + iy


# ---------------------------------------------------------------------------
# decoupling construction


@dataclass(frozen=True)
class DecouplingResult:
    """Isometries and fidelity defects from the decoupling construction.

    isometries_alice[x] maps A into A' (dim |A||X|), isometries_bob[y] maps B
    into B' (dim |B||Y|).  delta_in = max of the two objective terms measured
    on the input; fbar_alice is the defect of the Alice-only state against the
    X : A'BY product cut (bounded by 9 * I(X:BY)); fbar_out is the defect of
    the fully rotated state against the XY : A'B' cut (bounded by
    81 * delta_in).
    """

    isometries_alice: np.ndarray
    isometries_bob: np.ndarray
    delta_x: float
    delta_y: float
    delta_in: float
    fbar_alice: float
    fbar_out: float
    state_alice: PureState
    state_out: PureState


def pure_product_fidelity(m: np.ndarray) -> float:
    """F(|psi><psi|, rho_S (x) rho_R) for the pure psi with (S x R) amplitude matrix m.

    For pure psi, F^2 = <psi|rho_S (x) rho_R|psi>; in psi's Schmidt basis this
    is sum(lambda^3) over the Schmidt weights lambda, which are the spectrum of
    rho_S = m m^dag, so the smaller side belongs in the rows.  No density
    matrix of psi itself is formed.  rho_S is checked Hermitian and PSD, and
    the result goes through qinfo.clip_fidelity, as in qinfo.fidelity.
    """
    w = psd_eigvalsh(m @ m.conj().T)
    return clip_fidelity(math.sqrt(max(float((w ** 3).sum()), 0.0)))


def _polar_isometries(rho_plus: np.ndarray, conds: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Maximal-overlap isometries from each conditional conds[x] (system x ancilla,
    weight px[x]) onto the purification of rho_plus on a k times larger ancilla."""
    k, _, d = conds.shape
    m_phi = purification_matrix(rho_plus, k * d)
    iso = np.zeros((k, k * d, d), dtype=complex)
    for x in range(k):
        if px[x] <= 1e-15:                              # weightless (or rounded-negative)
            iso[x] = np.eye(k * d, d)                   # input: any isometry
        else:
            iso[x], _ = max_overlap_isometry(m_phi, conds[x] / math.sqrt(px[x]))
    return iso


def build_decoupling(omega: SuperposedState) -> DecouplingResult:
    """Construct decoupling isometries for a product input distribution.

    For each x, U_x is the maximal-overlap (polar construction) isometry
    between the purification of the BY-conditional state rho_x carried by the
    ancilla A, and a fixed canonical purification of the average rho_+ on a
    larger ancilla A'.  Bob's V_y mirror this on the other side.  The reported
    defects satisfy fbar_alice <= 9*I(X:BY) and fbar_out <= 81*delta_in up to
    numerical slack.  Everything is computed from the amplitude tensor; the
    defects come from pure_product_fidelity.
    """
    p = omega.p
    k = omega.k
    if not is_product(p):
        raise ValueError("decoupling construction requires a product input distribution")

    da, db = omega.dims()
    da2, db2 = da * k, db * k
    delta_x, delta_y = sic_terms(omega)

    omega_t = omega.state.tensor()                      # [x, a, b, y]
    t = omega_t.reshape(k * da, db * k)                 # (X, A) x (B, Y)

    # Alice side: conditionals on (B, Y) given x, average rho_+ on (B, Y).
    u_list = _polar_isometries(t.T @ t.conj(),
                               omega_t.transpose(0, 2, 3, 1).reshape(k, db * k, da), p.sum(axis=1))

    omega1_t = np.einsum("xpa,xaby->xpby", u_list, omega_t)
    omega1 = PureState(omega1_t.reshape(-1), (k, da2, db, k))
    fbar_alice = 1.0 - pure_product_fidelity(omega1_t.reshape(k, -1))   # X : A'BY

    # Bob side: conditionals on (X, A) given y, average on (X, A).
    v_list = _polar_isometries(t @ t.conj().T,
                               omega_t.transpose(3, 0, 1, 2).reshape(k, k * da, db), p.sum(axis=0))

    omega3_t = np.einsum("yqb,xpby->xpqy", v_list, omega1_t)
    omega3 = PureState(omega3_t.reshape(-1), (k, da2, db2, k))
    fbar_out = 1.0 - pure_product_fidelity(                               # XY : A'B'
        omega3_t.transpose(0, 3, 1, 2).reshape(k * k, -1))

    return DecouplingResult(
        isometries_alice=u_list,
        isometries_bob=v_list,
        delta_x=delta_x,
        delta_y=delta_y,
        delta_in=max(delta_x, delta_y),
        fbar_alice=fbar_alice,
        fbar_out=fbar_out,
        state_alice=omega1,
        state_out=omega3,
    )


# ---------------------------------------------------------------------------
# scalar bounds and grid checks


def sic_lower_bound(epsilon: float | np.ndarray,
                    delta: float | np.ndarray) -> float | np.ndarray:
    """Value of the scalar bound (1 - sqrt((1-eps)(1-delta)) - sqrt(delta*eps)) / 81.

    Any strategy family whose objective is at most delta while winning with
    probability 1 - delta on a game of entangled value 1 - eps forces the
    superposed cost to be at least this.  Takes numbers or arrays, elementwise.
    """
    eps, delta = np.asarray(epsilon, dtype=float), np.asarray(delta, dtype=float)
    if not (((0.0 <= eps) & (eps <= 1.0)).all() and ((0.0 <= delta) & (delta <= 1.0)).all()):
        raise ValueError("epsilon and delta must lie in [0, 1]")
    return (1.0 - np.sqrt((1.0 - eps) * (1.0 - delta)) - np.sqrt(delta * eps)) / 81.0


@dataclass(frozen=True)
class GridReport:
    """Outcome of a scalar claim evaluated over a parameter grid."""

    claim: str
    grid_size: int
    holds_everywhere: bool
    n_failures: int
    worst_margin: float
    worst_point: float

    def summary(self) -> str:
        status = "holds" if self.holds_everywhere else \
            f"FAILS at {self.n_failures} of {self.grid_size} points"
        return (f"{self.claim}: {status}; worst margin {self.worst_margin:.3e} "
                f"at {self.worst_point:.6g}")


def _grid_report(claim: str, grid: np.ndarray, margins: np.ndarray) -> GridReport:
    i = int(np.argmin(margins))
    fails = int((margins < 0.0).sum())
    return GridReport(claim, len(grid), fails == 0, fails,
                      float(margins[i]), float(grid[i]))


def check_bound_at_delta_zero(grid_size: int = 10_000) -> GridReport:
    """sic_lower_bound(eps, 0) >= eps/162 over an epsilon grid.  Holds."""
    eps = np.linspace(0.0, 1.0, grid_size)
    return _grid_report("bound(eps,0) >= eps/162", eps,
                        sic_lower_bound(eps, 0.0) - eps / 162.0)


def special_case_report(grid_size: int = 10_000, divisor: float = 324.0) -> GridReport:
    """Evaluate the claimed special case bound(eps, eps/8) >= eps/divisor.

    This claim FAILS for small eps (e.g. eps = 0.1 gives about 2.7e-4 versus
    eps/324 about 3.09e-4); the report records the failing region as a
    finding.  Nothing asserts it.
    """
    eps = np.linspace(0.0, 1.0, grid_size)
    return _grid_report(f"bound(eps, eps/8) >= eps/{divisor:g}", eps,
                        sic_lower_bound(eps, eps / 8.0) - eps / divisor)


def check_supercos(grid_size: int = 10_000) -> GridReport:
    """1 - cos(alpha) <= 9 (1 - cos(alpha/3)) on [0, pi].  Holds."""
    al = np.linspace(0.0, math.pi, grid_size)
    return _grid_report("1-cos(a) <= 9(1-cos(a/3))", al,
                        9.0 * (1.0 - np.cos(al / 3.0)) - (1.0 - np.cos(al)))


@dataclass(frozen=True)
class ShiftCheckReport:
    """Grid verification that a small fidelity-defect bound caps the win rate.

    Implication checked pointwise over omega in [0, 1]: whenever
    1 - sqrt(omega(1-eps)) - sqrt((1-omega)eps) <= eps/8, then
    omega <= 1 - eps/4.  min_slack is the smallest excess of the left side
    over eps/8 in the forbidden region omega > 1 - eps/4 (positive means the
    implication holds with room; it shrinks like O(eps^2) as eps -> 0).
    """

    epsilon: float
    grid_size: int
    violations: int
    max_premise_omega: float
    min_slack: float

    @property
    def holds(self) -> bool:
        return self.violations == 0


def rel_ent_game_shift_check(epsilon: float, grid_size: int = 4001) -> ShiftCheckReport:
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    om = np.linspace(0.0, 1.0, grid_size)
    lhs = 1.0 - np.sqrt(om * (1.0 - epsilon)) - np.sqrt((1.0 - om) * epsilon)
    premise = lhs <= epsilon / 8.0
    beyond = om > 1.0 - epsilon / 4.0 + 1e-12        # slack for the grid's rounding
    violations = int((premise & beyond).sum())
    max_premise = float(om[premise].max()) if premise.any() else math.nan
    min_slack = float((lhs[beyond] - epsilon / 8.0).min()) if beyond.any() else math.inf
    return ShiftCheckReport(epsilon, grid_size, violations, max_premise, min_slack)
