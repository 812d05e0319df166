"""Independent checks of a selected spline model against its inputs.

Nothing here calls into ``knotselect``: the designs are rebuilt from
scratch in truncated-power form on x rescaled to [0, 1], solved with
``numpy.linalg.lstsq``, and compared with what the library reported.
Models and configs are read by attribute only.

Span facts used (on z in [0, 1]):

* truncated power and B-spline of degree p with knots t span
  ``{z^0..z^p} + {(z - t_j)_+^p}``;
* the natural cubic spline with knots t (zero curvature at both domain
  ends) spans ``{1, z} + {(z - t_j)_+^3 - (1 - t_j) z^3}``.
"""

from __future__ import annotations

import numpy as np

RSS_RTOL = 1e-10  # refit RSS and PSS against the reported values
LAMBDA_RTOL = 1e-9  # lambda against the documented formula
ORACLE_RTOL = 1e-7  # reported RSS above the brute-force minimum, relative to the k=0 RSS
CV_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)  # default cross-validation grid around the auto lambda


def _sorted(xs, y):
    xs = np.asarray(xs, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    order = np.argsort(xs, kind="stable")
    return xs[order], y[order]


def _kind(model) -> tuple[bool, int]:
    """(natural?, degree) of the basis the model was refit in."""
    return model.basis.family.value == "natural-cubic", int(model.basis.degree)


def poly_columns(z, natural: bool, degree: int) -> np.ndarray:
    p = 1 if natural else degree
    return np.column_stack([z**j for j in range(p + 1)])


def knot_columns(z, ts, natural: bool, degree: int) -> np.ndarray:
    zz = np.asarray(z, dtype=float)[:, None]
    tt = np.asarray(ts, dtype=float)[None, :]
    cols = np.where(zz >= tt, (zz - tt) ** degree, 0.0)
    if natural:
        cols = cols - (1.0 - tt) * zz**3
    return cols


def refit_rss(xs, y, knots, natural: bool, degree: int) -> float:
    """RSS of the least-squares spline with the given knots, built here."""
    xs, y = _sorted(xs, y)
    a, w = xs[0], xs[-1] - xs[0]
    z = (xs - a) / w
    X = np.column_stack(
        [poly_columns(z, natural, degree), knot_columns(z, (np.asarray(knots) - a) / w, natural, degree)]
    )
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ coef
    return float(r @ r)


def auto_lambda(xs, y) -> float:
    """Documented default weight: 2 * (Rice first-difference variance) * log n, floored."""
    xs, y = _sorted(xs, y)
    d = np.diff(y)
    s2 = float(d @ d) / (2.0 * (y.size - 1))
    return max(2.0 * s2 * np.log(y.size), 1e-8 * float(np.var(y)) + 1e-12)


def admissible_lambdas(xs, y, cfg) -> list[float]:
    pen = cfg.penalty
    policy = pen.policy.value
    if policy == "fixed":
        return [float(pen.lam)]
    base = auto_lambda(xs, y)
    if policy == "variance-scaled-log":
        return [base]
    return list(pen.cv_grid) if pen.cv_grid else [base * f for f in CV_FACTORS]


def candidate_grid(xs, cfg) -> np.ndarray:
    xs = np.sort(np.asarray(xs, dtype=float))
    grid = np.unique(xs) if cfg.candidate_grid is None else np.asarray(cfg.candidate_grid, dtype=float)
    return grid[(grid > xs[0]) & (grid < xs[-1])]


def check_model(xs, y, cfg, model) -> list[str]:
    """Problems with ``model`` as the selection for (xs, y, cfg); empty when it checks out."""
    problems = []
    sx, sy = _sorted(xs, y)
    a, b = float(sx[0]), float(sx[-1])
    dom = model.knots.domain
    if (dom.a, dom.b) != (a, b):
        problems.append(f"domain [{dom.a}, {dom.b}] is not the data range [{a}, {b}]")
    knots = np.asarray(model.knots.knots, dtype=float)
    k = knots.size
    if k > cfg.k_max:
        problems.append(f"k={k} exceeds k_max={cfg.k_max}")
    if k:
        if not np.all(np.isin(knots, candidate_grid(sx, cfg))):
            problems.append(f"knots {knots.tolist()} are not all on the candidate grid")
        if knots[0] - a <= cfg.delta or b - knots[-1] <= cfg.delta or np.any(np.diff(knots) <= cfg.delta):
            problems.append(f"knots {knots.tolist()} violate delta={cfg.delta}")
        if knots[0] < a + cfg.exclude_left_frac * (b - a):
            problems.append(f"knot {knots[0]} lies in the excluded left region")

    lam = float(model.lambda_used)
    if not any(abs(lam - ref) <= LAMBDA_RTOL * ref for ref in admissible_lambdas(sx, sy, cfg)):
        problems.append(f"lambda {lam} is not the one the penalty policy prescribes")
    natural, degree = _kind(model)
    rss = refit_rss(sx, sy, knots, natural, degree)
    tol = RSS_RTOL * max(rss, 1e-12 * float(sy @ sy))
    if abs(model.rss - rss) > tol:
        problems.append(f"reported rss {model.rss!r} != independent refit {rss!r}")
    pss = rss + lam * (k + 1)
    if abs(model.pss - pss) > tol + 1e-12 * pss:
        problems.append(f"reported pss {model.pss!r} != rss + lambda*(k+1) = {pss!r}")
    return problems


def brute_force_min_rss(xs, y, cfg, k: int, natural: bool, degree: int) -> tuple[float, float]:
    """(minimum RSS over every feasible k-knot placement, k=0 RSS), for k in {1, 2}.

    Every candidate is scored in closed form after projecting the knot
    columns off the polynomial part, so the whole grid (or every pair on
    it) is evaluated at once.
    """
    sx, sy = _sorted(xs, y)
    a, b = sx[0], sx[-1]
    w = b - a
    grid = candidate_grid(sx, cfg)
    ok = (grid - a > cfg.delta) & (b - grid > cfg.delta) & (grid >= a + cfg.exclude_left_frac * w)
    cand = grid[ok]
    z = (sx - a) / w
    Q, _ = np.linalg.qr(poly_columns(z, natural, degree))
    r = sy - Q @ (Q.T @ sy)
    rss0 = float(r @ r)
    C = knot_columns(z, (cand - a) / w, natural, degree)
    V = C - Q @ (Q.T @ C)
    g = V.T @ r
    nrm = np.einsum("ij,ij->j", V, V)
    live = nrm > 1e-14 * np.maximum(np.einsum("ij,ij->j", C, C), 1e-300)
    if k == 1:
        red = np.where(live, g**2 / np.where(live, nrm, 1.0), -np.inf)
        return rss0 - float(red.max()), rss0
    M = V.T @ V
    det = np.outer(nrm, nrm) - M**2
    i, j = np.triu_indices(cand.size, 1)
    valid = (cand[j] - cand[i] > cfg.delta) & live[i] & live[j] & (det[i, j] > 1e-10 * nrm[i] * nrm[j])
    i, j = i[valid], j[valid]
    red = (g[i] ** 2 * nrm[j] - 2 * g[i] * g[j] * M[i, j] + g[j] ** 2 * nrm[i]) / det[i, j]
    return rss0 - float(red.max()), rss0


def check_optimal(xs, y, cfg, model) -> list[str]:
    """For k in {1, 2}: the reported placement reaches the brute-force minimum RSS."""
    if model.k not in (1, 2):
        return []
    natural, degree = _kind(model)
    best, rss0 = brute_force_min_rss(xs, y, cfg, model.k, natural, degree)
    if model.rss > best + ORACLE_RTOL * rss0:
        return [f"k={model.k} placement has rss {model.rss!r}, brute-force minimum is {best!r}"]
    return []
