"""Expected payoffs under product distributions and mixed equilibria.

Everything here depends only on the coalition structure and the payoff
tensors, never on the strategy graph: a profile of per-coalition
distributions is an equilibrium when no coalition can raise its expected
payoff by unilaterally replacing its own marginal. Because the expected
payoff is linear in each marginal, the supremum over deviations is attained
at a point mass, so checking pure deviations is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .games import GGame, Profile

MASS_TOL = 1e-12
DEFAULT_TOL = 1e-6
FICTITIOUS_PLAY_CAP = 100_000
SCREEN_BLOCK = 1 << 15  # system entries screened per batch of support pairs
SCREEN_MARGIN = 1e-6  # relative widening of the per-pair tests in the screen
# a system is not trusted by the screen when a singular value lies above
# lstsq's cutoff / NEAR_CUTOFF and below SCREEN_COND times the largest
NEAR_CUTOFF = 10.0
SCREEN_COND = 1e-6


class NoConvergenceError(Exception):
    """The iterative solver hit its cap without certifying an equilibrium."""


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite, externally indexed space."""

    masses: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("masses must be a nonempty vector")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("probability masses must be finite and nonnegative")
        if abs(float(m.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {m.sum()!r}, not 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def n(self) -> int:
        return self.masses.size

    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.masses))

    @staticmethod
    def dirac(n: int, atom: int) -> "Distribution":
        m = np.zeros(n)
        m[atom] = 1.0
        return Distribution(m)

    @staticmethod
    def uniform(n: int) -> "Distribution":
        return Distribution(np.full(n, 1.0 / n))


def total_variation(a: Distribution | np.ndarray, b: Distribution | np.ndarray) -> float:
    """Half the L1 distance between two probability vectors."""
    av = a.masses if isinstance(a, Distribution) else np.asarray(a, float)
    bv = b.masses if isinstance(b, Distribution) else np.asarray(b, float)
    if av.shape != bv.shape:
        raise ValueError("distributions live on different spaces")
    return float(0.5 * np.abs(av - bv).sum())


@dataclass(frozen=True)
class MixedProfile:
    """One distribution per coalition, read as a product distribution."""

    parts: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("need at least one coalition distribution")

    @staticmethod
    def dirac(game: GGame, profile: Profile) -> "MixedProfile":
        game.validate_profile(profile)
        return MixedProfile(
            tuple(
                Distribution.dirac(game.dims[h], profile[h]) for h in range(game.r)
            )
        )

    @staticmethod
    def uniform(game: GGame) -> "MixedProfile":
        return MixedProfile(tuple(Distribution.uniform(d) for d in game.dims))


def _check_shapes(game: GGame, profile: MixedProfile) -> None:
    if len(profile.parts) != game.r:
        raise ValueError("profile has wrong number of coalitions")
    for h, part in enumerate(profile.parts):
        if part.n != game.dims[h]:
            raise ValueError(
                f"coalition {h} distribution has {part.n} masses, space has {game.dims[h]}"
            )


def expected_payoff(game: GGame, profile: MixedProfile, coalition: int) -> float:
    """Multilinear contraction of one coalition's payoff tensor with the
    per-coalition mass vectors."""
    _check_shapes(game, profile)
    t = game.payoffs[coalition]
    for part in profile.parts:
        t = np.tensordot(part.masses, t, axes=(0, 0))
    return float(t)


def payoff_vector(game: GGame, profile: MixedProfile, coalition: int) -> np.ndarray:
    """Expected payoff of `coalition` for each of its pure strategies, holding
    the other coalitions at their profile distributions."""
    _check_shapes(game, profile)
    t = game.payoffs[coalition]
    # contracting in descending axis order keeps each original axis at its
    # own position until it is consumed
    for h in range(game.r - 1, -1, -1):
        if h == coalition:
            continue
        t = np.tensordot(t, profile.parts[h].masses, axes=(h, 0))
    return np.asarray(t, dtype=float).reshape(-1)


def is_mixed_c_equilibrium(
    game: GGame, profile: MixedProfile, tol: float = DEFAULT_TOL
) -> bool:
    """True iff no coalition's best point-mass reply beats its expected payoff
    by more than `tol`."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    for h in range(game.r):
        v = payoff_vector(game, profile, h)
        current = float(v @ profile.parts[h].masses)
        if current < float(v.max()) - tol:
            return False
    return True


def _support_blocks(m: int, n: int):
    """Support sizes (|I|, |J|) of the nonempty support pairs, in
    Porter-Nudelman-Shoham order: by ||I| - |J|| (balanced pairs, where a
    nondegenerate game's equilibria lie, first), then |I| + |J|, then |I|.
    Within a block the pairs run lexicographically, as
    product(combinations(m, |I|), combinations(n, |J|)) yields them."""
    for gap in range(max(m, n)):
        for total in range(gap + 2, m + n + 1, 2):
            for size in sorted({(total - gap) // 2, (total + gap) // 2}):
                if size <= m and total - size <= n:
                    yield size, total - size


def _screened_pairs(a: np.ndarray, b: np.ndarray, certify_tol: float):
    """Support pairs (I, J) as index arrays, in the order of
    `_support_blocks`, without the pairs that `_support_pair_profile`
    certainly rejects.

    Pure pairs are screened in closed form: the per-pair solve finds their
    mixtures as exact point masses or not at all, so certification compares
    a[i, j] with the best reply to column j, and b[i, j] with the best reply
    to row i. Other blocks are screened in batches of at most SCREEN_BLOCK
    system entries by `_screen`; a block of one pair is not screened, since
    screening costs more than its solve."""
    m, n = a.shape
    slack = certify_tol + SCREEN_MARGIN
    for size_x, size_y in _support_blocks(m, n):
        if size_x == size_y == 1:
            # in Python floats: on small games numpy's per-call cost dominates
            rows_a, rows_b = a.tolist(), b.tolist()
            best_a = [max(column) - slack for column in zip(*rows_a)]
            best_b = [max(row) - slack for row in rows_b]
            for i in range(m):
                for j in range(n):
                    if rows_a[i][j] >= best_a[j] and rows_b[i][j] >= best_b[i]:
                        yield np.array([i]), np.array([j])
            continue
        xs = np.array(list(combinations(range(m), size_x)))
        ys = np.array(list(combinations(range(n), size_y)))
        count = len(xs) * len(ys)
        if count == 1:
            yield xs[0], ys[0]
            continue
        step = max(1, SCREEN_BLOCK // ((size_x + 1) * (size_y + 1)))
        for start in range(0, count, step):
            pairs = np.arange(start, min(start + step, count))
            ix, iy = xs[pairs // len(ys)], ys[pairs % len(ys)]
            keep = np.flatnonzero(_screen(a, b, ix, iy, certify_tol))
            yield from zip(ix[keep], iy[keep])


def _support_enumeration_two(game: GGame, certify_tol: float) -> MixedProfile:
    """Exact search over support pairs for two-coalition games.

    For supports (I, J), each coalition's mixture must equalize the other's
    payoff across its support; the linear systems are solved directly and
    the assembled profile kept only if it certifies as an equilibrium.
    A batched screen drops only pairs that this solve rejects, so the first
    pair that certifies, and its profile, are those of trying every pair.
    """
    a, b = game.payoffs
    for ix, iy in _screened_pairs(a, b, certify_tol):
        candidate = _support_pair_profile(game, ix, iy, certify_tol)
        if candidate is not None:
            return candidate
    # every game has an equilibrium: reached only if least squares missed one
    raise NoConvergenceError("support enumeration certified no support pair")


def _support_pair_profile(
    game: GGame, ix: np.ndarray, iy: np.ndarray, certify_tol: float
) -> MixedProfile | None:
    """The profile of supports (ix, iy) if both equalizing mixtures exist
    and the profile certifies, else None."""
    a, b = game.payoffs
    m, n = game.dims
    x = _equalizing_mixture(b[ix[:, None], iy].T)
    if x is None:
        return None
    y = _equalizing_mixture(a[ix[:, None], iy])
    if y is None:
        return None
    fx = np.zeros(m)
    fx[ix] = x
    fy = np.zeros(n)
    fy[iy] = y
    candidate = MixedProfile((Distribution(fx), Distribution(fy)))
    if is_mixed_c_equilibrium(game, candidate, tol=certify_tol):
        return candidate
    return None


def _screen(
    a: np.ndarray, b: np.ndarray, ix: np.ndarray, iy: np.ndarray, certify_tol: float
) -> np.ndarray:
    """For support pairs (ix[p], iy[p]) of one block, False where
    `_support_pair_profile` certainly returns None, True where it may not.

    The tests are `_support_pair_profile`'s, on the solutions of one batched
    SVD per coalition, with margins SCREEN_MARGIN wider relative to the
    payoff and solution scales. A pair whose solutions are not trusted
    (`_screen_mixtures`) is dropped only when a trusted system of it fails."""
    count = len(ix)
    sub_a = a[ix[:, :, None], iy[:, None, :]]
    sub_b = b[ix[:, :, None], iy[:, None, :]]
    try:
        x, sure_x, reject_x, mag_x = _screen_mixtures(sub_b.transpose(0, 2, 1))
        y, sure_y, reject_y, mag_y = _screen_mixtures(sub_a)
    except np.linalg.LinAlgError:  # an SVD did not converge: keep the whole batch
        return np.ones(count, dtype=bool)
    rows = np.arange(count)[:, None]
    fx = np.zeros((count, a.shape[0]))
    fx[rows, ix] = x
    fy = np.zeros((count, a.shape[1]))
    fy[rows, iy] = y
    # is_mixed_c_equilibrium: each coalition's payoff against its best reply
    va = fy @ a.T
    vb = fx @ b
    slack = SCREEN_MARGIN * (1.0 + mag_x + mag_y)
    fail = (
        np.einsum("pi,pi->p", va, fx)
        < va.max(axis=1) - certify_tol - slack * (1.0 + np.abs(a).max())
    ) | (
        np.einsum("pj,pj->p", vb, fy)
        < vb.max(axis=1) - certify_tol - slack * (1.0 + np.abs(b).max())
    )
    return ~(reject_x | reject_y | (sure_x & sure_y & fail))


def _screen_mixtures(mats: np.ndarray):
    """`_equalizing_mixture` on a stack of matrices by one batched SVD.

    Returns the normalized mixtures, whether each system's solution is
    trusted, whether `_equalizing_mixture` certainly rejects it (trusted
    systems only), and each solution's largest magnitude.
    lstsq(rcond=None) treats singular values up to eps * max(M, N) times
    the largest as zero. A solution is trusted when no singular value lies
    between that cutoff / NEAR_CUTOFF and SCREEN_COND times the largest.
    The values zeroed here then lie far below lstsq's cutoff too (on 160 000
    equalizing systems of pursuit, Shapley and integer games, the two
    factorizations' small singular values differed by at most 0.13 cutoffs),
    and the rest is well conditioned, so both solves agree far inside
    SCREEN_MARGIN."""
    count, rows, size = mats.shape
    system = np.zeros((count, rows + 1, size + 1))
    system[:, :rows, :size] = mats
    system[:, :rows, size] = -1.0
    system[:, rows, :size] = 1.0
    u, s, vt = np.linalg.svd(system, full_matrices=False)
    top = s[:, :1]
    cutoff = np.finfo(float).eps * max(rows + 1, size + 1) * top
    sure = ~np.any((s > cutoff / NEAR_CUTOFF) & (s < SCREEN_COND * top), axis=1)
    # the right-hand side is the last unit vector, so U^T rhs is U's last row
    kept = s > cutoff
    coef = np.where(kept, u[:, rows, :] / np.where(kept, s, 1.0), 0.0)
    sol = np.einsum("pk,pkj->pj", coef, vt)
    magnitude = np.abs(sol).max(axis=1)
    resid = np.einsum("pij,pj->pi", system, sol)
    resid[:, rows] -= 1.0
    bound = np.full(rows + 1, 1e-9)
    bound[rows] += 1e-5
    x = sol[:, :size]
    reject = sure & (
        np.any(np.abs(resid) > bound + SCREEN_MARGIN * (1.0 + top * magnitude[:, None]), axis=1)
        | np.any(x < -1e-9 - SCREEN_MARGIN * (1.0 + magnitude[:, None]), axis=1)
    )
    # a solution that passes the residual test sums to about 1, so the
    # positive-sum test rejects nothing more
    x = np.clip(x, 0.0, None)
    total = x.sum(axis=1, keepdims=True)
    return x / np.where(total > 0, total, 1.0), sure, reject, magnitude


def _equalizing_mixture(mat: np.ndarray) -> np.ndarray | None:
    """Solve for a mixture over the columns of `mat` making every row (the
    opponent's supported payoffs) take one common value."""
    rows, size = mat.shape
    system = np.zeros((rows + 1, size + 1))
    system[:rows, :size] = mat
    system[:rows, size] = -1.0
    system[rows, :size] = 1.0
    rhs = np.zeros(rows + 1)
    rhs[rows] = 1.0
    # underdetermined systems are fine; lstsq picks the minimum-norm solution
    sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
    # np.allclose(system @ sol, rhs, atol=1e-9), written out
    if not np.all(np.abs(system @ sol - rhs) <= 1e-9 + 1e-5 * np.abs(rhs)):
        return None
    x = sol[:size]
    if np.any(x < -1e-9):
        return None
    x = np.clip(x, 0.0, None)
    total = x.sum()
    if total <= 0:
        return None
    return x / total


def _fictitious_play(
    game: GGame, tol: float, cap: int
) -> MixedProfile:
    """Damped best-reply averaging; raises NoConvergenceError at the cap."""
    averages = [np.full(d, 1.0 / d) for d in game.dims]
    for iteration in range(1, cap + 1):
        profile = MixedProfile(tuple(Distribution(a) for a in averages))
        replies = [
            int(np.argmax(payoff_vector(game, profile, h))) for h in range(game.r)
        ]
        step = 1.0 / (iteration + 1)
        for h, reply in enumerate(replies):
            averages[h] *= 1.0 - step
            averages[h][reply] += step
        if iteration % 128 == 0 or iteration == cap:
            candidate = MixedProfile(
                tuple(Distribution(a / a.sum()) for a in averages)
            )
            if is_mixed_c_equilibrium(game, candidate, tol=tol):
                return candidate
    raise NoConvergenceError(
        f"fictitious play did not certify an equilibrium within {cap} iterations"
    )


def compute_mixed_equilibrium(
    game: GGame, tol: float = DEFAULT_TOL, cap: int = FICTITIOUS_PLAY_CAP
) -> MixedProfile:
    """Find a mixed equilibrium certified by `is_mixed_c_equilibrium`.

    Two coalitions get exact support enumeration at any size. Three or more
    first try every point-mass product, then damped fictitious play, which
    raises NoConvergenceError if certification fails at the iteration cap.
    """
    if game.r == 1:
        best = int(np.argmax(game.payoffs[0]))
        return MixedProfile.dirac(game, (best,))
    if game.r == 2:
        return _support_enumeration_two(game, certify_tol=min(tol, 1e-9))
    for profile in game.profiles():
        candidate = MixedProfile.dirac(game, profile)
        if is_mixed_c_equilibrium(game, candidate, tol=0.0):
            return candidate
    return _fictitious_play(game, tol=tol, cap=cap)
