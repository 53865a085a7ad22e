"""Seeded, numpy-only generators for the benchmark's input states.

Every state the benchmark feeds to gsep is built here, from the seed
alone, without calling gsep.  Both sides of a comparison therefore get
bit-identical inputs even when gsep's own generators change or go away.

Single-party states use the Euler (Bloch-Messiah) decomposition
``S = O1 diag(e^r, e^-r) O2`` with passive ``O`` taken from Haar unitaries
(QR with the phase fix of Mezzadri, Notices AMS 54, 592 (2007)) and
thermal noise ``nu >= 1``.  Squeezing and noise are bounded, so
``cond(gamma)`` stays small at any mode count, unlike a product of
``expm(J H)`` factors.

Conventions match gsep: interleaved quadratures ``(x1, p1, x2, p2, ...)``,
vacuum CM equal to the identity, ``gamma - iJ >= 0`` for a valid state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import ppt_margin

WERNER_WOLF = Path(__file__).parent / "data" / "werner_wolf_2x2.json"

# PPT margin below which a generated entangled state counts as clearly NPT.
CLEAR_NPT = -0.05
# Two-mode squeezing of NPT pairs is drawn from [NPT_R_LO, NPT_R_HI]; the
# local symplectic maps that mix pairs squeeze by at most LOCAL_R.
NPT_R_LO, NPT_R_HI = 0.3, 0.8
LOCAL_R = 0.3
# Offsets from the found threshold at which near-threshold verdicts are
# taken.  Below the threshold verdicts are one-step entangled ones, so
# fewer are taken there; the median verdict then falls among the
# multi-step separable ones instead of in the gap between the two kinds.
SWEEP_ABOVE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
SWEEP_BELOW = (1e-2, 1e-4, 1e-6, 1e-8)
# The large-mode states: (modes per side, kind, delta), where delta is
# how far beyond its threshold a boundary state sits (1e-2, 1e-4, 1e-6
# take about 2, 5 and 9 steps).  Sorted by cost they fall into groups of
# similar states; the counts put the median inside the 64+64 planted /
# 1e-2 group and the 90th percentile inside the 64+64 1e-4 group, not in
# a gap between groups, so both stay put from seed to seed.
LARGE_STATES = (
    (32, "npt", None), (32, "planted", None), (32, "boundary", 1e-2),
    (32, "boundary", 1e-4), (64, "npt", None), (64, "planted", None),
    (64, "planted", None), (64, "boundary", 1e-2), (64, "boundary", 1e-4),
    (64, "boundary", 1e-4), (64, "boundary", 1e-6),
)


@dataclass(frozen=True)
class State:
    """One generated input with what the reference knows about it.

    ``expect`` is the verdict the reference demands, "separable" or
    "entangled".  ``threshold`` is the exact identity-noise threshold
    when one is known in closed form.
    """

    name: str
    n: int
    m: int
    gamma: np.ndarray
    expect: str
    threshold: float | None = None

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "m": self.m, "gamma": self.gamma.tolist()})


def _interleave(k: int) -> np.ndarray:
    """Index map from (x1..xk, p1..pk) ordering to interleaved ordering."""
    perm = np.empty(2 * k, dtype=int)
    perm[0::2] = np.arange(k)
    perm[1::2] = k + np.arange(k)
    return perm


def haar_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def passive(k: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal symplectic matrix (a passive optical network)."""
    u = haar_unitary(k, rng)
    o = np.block([[u.real, -u.imag], [u.imag, u.real]])
    perm = _interleave(k)
    return o[np.ix_(perm, perm)]


def euler_symplectic(k: int, rng: np.random.Generator, r_max: float) -> np.ndarray:
    """``O1 diag(e^r1, e^-r1, ...) O2`` with squeezings ``r_i <= r_max``."""
    r = rng.uniform(0.0, r_max, k)
    squeeze = np.ravel(np.column_stack([np.exp(r), np.exp(-r)]))
    return (passive(k, rng) * squeeze) @ passive(k, rng)


def _sym(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.T) / 2.0


def single_party(k: int, rng: np.random.Generator, r_max: float = 0.3,
                 nu_max: float = 1.3) -> np.ndarray:
    """Mixed single-party CM ``S diag(nu) S^T`` with bounded squeezing."""
    s = euler_symplectic(k, rng, r_max)
    nu = np.repeat(rng.uniform(1.0, nu_max, k), 2)
    return _sym((s * nu) @ s.T)


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0],) * 2)
    out[:a.shape[0], :a.shape[0]] = a
    out[a.shape[0]:, a.shape[0]:] = b
    return out


def planted_separable(n: int, m: int, rng: np.random.Generator,
                      noise: float = 0.5) -> np.ndarray:
    """``gamma_A oplus gamma_B + R R^T``: separable by construction."""
    d = 2 * (n + m)
    r = noise * rng.standard_normal((d, d)) / np.sqrt(d)
    return _sym(direct_sum(single_party(n, rng), single_party(m, rng)) + r @ r.T)


def tmss_pairs(r: np.ndarray, nu: np.ndarray | None = None) -> np.ndarray:
    """``k + k`` modes, mode i of A two-mode squeezed with mode i of B.

    ``nu`` scales each pair by a thermal factor (``nu * tmss`` is a
    valid CM for ``nu >= 1``).
    """
    k = len(r)
    nu = np.ones(k) if nu is None else nu
    ch = np.repeat(nu * np.cosh(2.0 * r), 2)
    sh = np.ravel(np.column_stack([nu * np.sinh(2.0 * r), -nu * np.sinh(2.0 * r)]))
    return np.block([[np.diag(ch), np.diag(sh)], [np.diag(sh), np.diag(ch)]])


def tmss(r: float) -> np.ndarray:
    return tmss_pairs(np.array([r]))


def npt_entangled(k: int, rng: np.random.Generator) -> np.ndarray:
    """``(S_A oplus S_B)`` applied to ``k`` thermal TMSS pairs; NPT."""
    r = rng.uniform(NPT_R_LO, NPT_R_HI, k)
    nu = rng.uniform(1.0, 1.2, k)
    local = direct_sum(euler_symplectic(k, rng, LOCAL_R), euler_symplectic(k, rng, LOCAL_R))
    return _sym(local @ tmss_pairs(r, nu) @ local.T)


def werner_wolf() -> np.ndarray:
    doc = json.loads(WERNER_WOLF.read_text(encoding="utf-8"))
    return np.array(doc["gamma"], dtype=float)


def _rng(seed: int, workload: str) -> np.random.Generator:
    salt = [ord(ch) for ch in workload]
    return np.random.default_rng([seed, *salt])


def random_1x1(rng: np.random.Generator) -> State | None:
    """Random 1+1 state labelled by the transpose test, which is exact here.

    Returns ``None`` when ``|margin| <= 1e-8``, too close to call.
    """
    gamma = single_party(2, rng, r_max=0.8, nu_max=2.0)
    margin = ppt_margin(gamma, 1)
    if abs(margin) <= 1e-8:
        return None
    expect = "separable" if margin > 0 else "entangled"
    return State(f"random-1x1-{expect}", 1, 1, gamma, expect)


def pop_small(seed: int, size: int = 1000) -> tuple[list[State], int]:
    """Mixed population of small states; returns it with the skip count.

    Half are random 1+1 states labelled by the transpose test (exact for
    one mode per side; states with ``|margin| <= 1e-8`` are skipped),
    drawn until separable and entangled ones are equally many.  The rest
    are planted-separable states cycling through every size from 1+1 to
    3+3, a TMSS ladder and the Werner-Wolf fixture.  The mix is fixed, so
    only the states themselves change with the seed.
    """
    rng = _rng(seed, "pop-small")
    random_states: dict[str, list[State]] = {"separable": [], "entangled": []}
    skipped = 0
    while min(map(len, random_states.values())) < size // 4:
        state = random_1x1(rng)
        if state is None:
            skipped += 1
        elif len(random_states[state.expect]) < size // 4:
            random_states[state.expect].append(state)
    states = random_states["separable"] + random_states["entangled"]
    ladder = np.linspace(0.1, 1.5, 30)
    n_ww = size // 100
    sizes = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    for i in range(size - len(states) - len(ladder) - n_ww):
        n, m = sizes[i % len(sizes)]
        states.append(State(f"planted-{n}x{m}", n, m, planted_separable(n, m, rng), "separable"))
    states += [State(f"tmss-{r:.3f}", 1, 1, tmss(r), "entangled") for r in ladder]
    states += [State("werner-wolf", 2, 2, werner_wolf(), "entangled")] * n_ww
    order = rng.permutation(len(states))
    return [states[i] for i in order], skipped


def pair_threshold(r: np.ndarray, nu: np.ndarray) -> float:
    """Exact identity-noise threshold of ``tmss_pairs(r, nu)``.

    Each thermal pair is separable exactly when ``eps >= 1 - nu e^{-2r}``
    (the transpose test is exact for 1+1 modes), and a product of pairs
    across the cut is separable exactly when every pair is.
    """
    return max(0.0, float(np.max(1.0 - nu * np.exp(-2.0 * r))))


def near_boundary_separable(k: int, rng: np.random.Generator, delta: float) -> np.ndarray:
    """Separable ``k + k`` state ``delta`` beyond its threshold, then mixed locally.

    Thermal TMSS pairs plus ``(eps* + delta) I`` are separable, and local
    symplectic maps ``S_A oplus S_B`` keep them separable.  Small
    ``delta`` makes the decision take several steps.
    """
    r = rng.uniform(0.2, 0.6, k)
    nu = rng.uniform(1.0, 1.2, k)
    eps = pair_threshold(r, nu) + delta
    local = direct_sum(euler_symplectic(k, rng, LOCAL_R), euler_symplectic(k, rng, LOCAL_R))
    return _sym(local @ (tmss_pairs(r, nu) + eps * np.eye(4 * k)) @ local.T)


def _clear_npt(k: int, rng: np.random.Generator) -> np.ndarray:
    gamma = npt_entangled(k, rng)
    while ppt_margin(gamma, k) > CLEAR_NPT:
        gamma = npt_entangled(k, rng)
    return gamma


def large_modes(seed: int) -> list[State]:
    """32+32 and 64+64 states of ``LARGE_STATES``: planted, near-boundary separable, NPT.

    The seed changes the states but hardly how many steps they take.
    """
    rng = _rng(seed, "large-modes")
    states: list[State] = []
    for k, kind, delta in LARGE_STATES:
        if kind == "npt":
            states.append(State(f"npt-{k}x{k}", k, k, _clear_npt(k, rng), "entangled"))
        elif kind == "planted":
            states.append(State(f"planted-{k}x{k}", k, k,
                                planted_separable(k, k, rng, noise=1.5), "separable"))
        else:
            states.append(State(f"boundary-{k}x{k}-{delta:g}", k, k,
                                near_boundary_separable(k, rng, delta), "separable"))
    return states


def near_threshold(seed: int, size: int = 20) -> list[State]:
    """2+2 states whose identity-noise threshold is searched.

    A third are TMSS pairs with an exact threshold, most are NPT states
    mixed by local symplectic maps (threshold at least the PPT one), and
    the Werner-Wolf fixture closes each block of ten.
    """
    rng = _rng(seed, "near-threshold")
    states: list[State] = []
    for i in range(size):
        if i % 10 == 9:
            states.append(State("werner-wolf", 2, 2, werner_wolf(), "entangled"))
        elif i % 3 == 0:
            r1 = rng.uniform(0.2, 1.2)
            r = np.array([r1, r1 * rng.uniform(0.2, 0.8)])
            states.append(State(f"tmss-pairs-{i}", 2, 2, tmss_pairs(r), "entangled",
                                threshold=1.0 - np.exp(-2.0 * r1)))
        else:
            states.append(State(f"npt-2x2-{i}", 2, 2, _clear_npt(2, rng), "entangled"))
    return states


def cli_cold(seed: int) -> list[State]:
    """Four small inputs for cold CLI calls, two of each verdict."""
    rng = _rng(seed, "cli-cold")
    separable = None
    while separable is None or separable.expect != "separable":
        separable = random_1x1(rng)
    return [separable,
            State("planted-3x3", 3, 3, planted_separable(3, 3, rng), "separable"),
            State("tmss", 1, 1, tmss(rng.uniform(0.2, 1.2)), "entangled"),
            State("werner-wolf", 2, 2, werner_wolf(), "entangled")]
