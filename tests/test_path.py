"""The knot path shared by every lambda, checked against one search per lambda."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotselect import search
from knotselect.basis import BasisFamily, BasisSpec, Domain, KnotConfig, design_matrix
from knotselect.criterion import LambdaPolicy, Penalty, cv_lambda
from knotselect.search import SearchConfig, select, select_lambdas

TP = BasisFamily.TRUNCATED_POWER
BS = BasisFamily.BSPLINE
NC = BasisFamily.NATURAL_CUBIC


def fixed(cfg, lam):
    return replace(cfg, penalty=Penalty(policy=LambdaPolicy.FIXED, lam=lam))


def fold_masks(n, folds, seed):
    """Training masks exactly as cv_lambda assigns folds."""
    perm = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % folds
    return [assignment != f for f in range(folds)]


def reference_cv(xs, y, cfg, grid, folds, seed):
    """Cross-validated lambda by one full select per (lambda, fold)."""
    scores = []
    for lam in grid:
        sse = 0.0
        for tr in fold_masks(xs.size, folds, seed):
            model = select(xs[tr], y[tr], fixed(cfg, lam))
            pred = model.predict(xs[~tr], extrapolate=True)
            sse += float(np.sum((y[~tr] - pred) ** 2))
        scores.append(sse / xs.size)
    return grid[min(range(len(grid)), key=lambda i: (scores[i], -grid[i]))]


def assert_same_model(a, b):
    assert a.knots.knots == b.knots.knots
    assert a.basis == b.basis
    assert a.rss == b.rss
    assert a.pss == b.pss
    assert a.lambda_used == b.lambda_used
    assert np.array_equal(a.coefficients, b.coefficients)


@st.composite
def cv_instances(draw):
    """Small problems over every family, noisy or noiseless, with explicit lambda grids.

    Noiseless data is a spline with knots on the candidate grid, so
    every placement that contains them fits exactly and ties; the lambda
    grids span many orders of magnitude, so rounding of RSS + lambda (k + 1)
    merges those ties at some lambdas and not at others.
    """
    family = draw(st.sampled_from([TP, BS, NC]))
    degree = 3 if family is NC else draw(st.integers(1, 3))
    spec = BasisSpec(family, degree)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(16, 36))
    if draw(st.booleans()):
        xs = np.linspace(0.0, 10.0, n)
    else:
        xs = np.sort(rng.uniform(0.0, 10.0, n))
        xs[0], xs[-1] = 0.0, 10.0
    if draw(st.booleans()):
        grid = tuple(float(g) for g in np.arange(1.0, 10.0, draw(st.sampled_from([0.5, 1.0]))))
    else:
        grid = None
    cand = np.asarray(grid) if grid is not None else xs[1:-1]
    truth = tuple(sorted(rng.choice(cand[(cand > 2.0) & (cand < 8.0)], draw(st.integers(0, 2)), replace=False)))
    if len(truth) == 2 and truth[1] - truth[0] < 1.5:
        truth = truth[:1]
    truth_spec = BasisSpec(TP, 3) if family is NC and len(truth) < 2 else spec
    kc = KnotConfig(tuple(float(t) for t in truth), Domain(0.0, 10.0))
    X = design_matrix(xs, truth_spec, kc)
    y = X @ rng.normal(size=X.shape[1]) * draw(st.sampled_from([1.0, 1e3]))
    if not draw(st.booleans()):  # noisy
        y = y + rng.normal(0.0, draw(st.sampled_from([0.01, 0.3])), n)
    cfg = SearchConfig(
        basis=spec,
        delta=draw(st.sampled_from([0.6, 1.2, 2.5])),
        k_max=draw(st.integers(0, 4)),
        candidate_grid=grid,
        exclude_left_frac=draw(st.sampled_from([0.0, 0.0, 0.25])),
        patience=draw(st.integers(1, 3)),
    )
    lams = draw(
        st.lists(st.sampled_from([1e-40, 1e-20, 1e-9, 1e-4, 0.05, 1.0, 30.0]), min_size=2, max_size=5, unique=True)
    )
    folds = draw(st.integers(2, 4))
    return xs, y, cfg, lams, folds, draw(st.integers(0, 9))


class TestSharedPathEquivalence:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(cv_instances())
    def test_fold_models_and_chosen_lambda_match_one_search_per_lambda(self, inst):
        xs, y, cfg, lams, folds, seed = inst
        for tr in fold_masks(xs.size, folds, seed):
            models = select_lambdas(xs[tr], y[tr], cfg, lams)
            assert len(models) == len(lams)
            for lam, model in zip(lams, models):
                assert_same_model(model, select(xs[tr], y[tr], fixed(cfg, lam)))
        chosen = cv_lambda(
            xs, y, cfg.basis, lams, folds, seed=seed, delta=cfg.delta, k_max=cfg.k_max,
            candidate_grid=cfg.candidate_grid, exclude_left_frac=cfg.exclude_left_frac,
            patience=cfg.patience,
        )
        assert chosen == reference_cv(xs, y, cfg, lams, folds, seed)

    def test_select_lambdas_validates(self):
        xs = np.linspace(0, 10, 30)
        cfg = SearchConfig(basis=BasisSpec(TP, 1), delta=1.0)
        with pytest.raises(ValueError):
            select_lambdas(xs, xs, cfg, [])
        with pytest.raises(ValueError):
            select_lambdas(xs, xs, cfg, [1.0, 0.0])


def _step(k, finalists, rss, tie_lam):
    """A hand-made path step whose chosen finalist is tie_lam's pick."""
    chosen = search._pick(k, finalists, rss, tie_lam)
    fit = SimpleNamespace(coefficients=np.zeros(k + 2), rss=rss[chosen])
    kc = KnotConfig(tuple(float(i) for i in finalists[chosen]), Domain(0.0, 10.0))
    return search._PathStep(k, finalists, rss, chosen, BasisSpec(TP, 1), kc, fit)


class TestSplitRule:
    # two exact fits whose RSS differ only in rounding noise: at lambda = 1
    # both criterion values round to 2.0 and the smaller knot vector (3,)
    # wins; at lambda = 1e-30 the smaller RSS, knot (5,), wins
    FINALISTS = ((5,), (3,))
    RSS = (1e-20, 2e-20)

    def test_rounding_tie_picks_differ_by_lambda(self):
        assert search._pick(1, self.FINALISTS, self.RSS, 1.0) == 1
        assert search._pick(1, self.FINALISTS, self.RSS, 1e-30) == 0
        assert search._pick(1, ((7,),), (3.0,), 1.0) == 0

    def test_disagreeing_lambda_leaves_the_path(self):
        path = [
            _step(0, ((),), (4.0,), 1.0),
            _step(1, self.FINALISTS, self.RSS, 1.0),
        ]
        own = []

        def own_search(lam):
            own.append(lam)
            return "own search"

        best = search._follow(iter(path), [1.0, 1e-30], patience=2, own_search=own_search)
        assert own == [1e-30]
        assert best[1] == "own search"
        assert best[0].k == 1 and best[0].knots.knots == (3.0,)
        assert best[0].pss == 2.0

    def test_agreeing_lambdas_stay_on_the_path(self):
        path = [_step(0, ((),), (4.0,), 1.0), _step(1, self.FINALISTS, self.RSS, 1.0)]
        best = search._follow(iter(path), [1.0, 0.5], patience=2, own_search=None)
        assert [m.k for m in best] == [1, 1]
        assert [m.lambda_used for m in best] == [1.0, 0.5]

    def test_path_advances_only_while_a_lambda_is_live(self):
        consumed = []

        def path():
            for k, rss in enumerate((1.0, 2.0, 3.0, 4.0, 5.0)):
                consumed.append(k)
                yield _step(k, (tuple(range(1, k + 1)),), (rss,), 1.0)

        best = search._follow(path(), [1.0, 2.0], patience=2, own_search=None)
        assert consumed == [0, 1, 2]
        assert all(m.k == 0 for m in best)

    def test_split_fires_on_noiseless_ties(self, monkeypatch):
        # a noiseless one-knot line: every knot pair that contains the true
        # knot fits exactly, and lambda = 1e-40 breaks that tie by rounding
        # noise in the RSS, not by the knot vector
        xs = np.linspace(0.0, 10.0, 41)
        y = 1.0 + 0.5 * xs - 2.0 * np.maximum(xs - 5.0, 0.0)
        cfg = SearchConfig(basis=BasisSpec(TP, 1), delta=1.0, k_max=3, patience=3)
        calls = []
        inner = search.select

        def counted(xs_, y_, cfg_):
            calls.append(cfg_.penalty.lam)
            return inner(xs_, y_, cfg_)

        monkeypatch.setattr(search, "select", counted)
        models = select_lambdas(xs, y, cfg, [1.0, 1e-40])
        monkeypatch.undo()
        assert calls == [1e-40]
        for lam, model in zip([1.0, 1e-40], models):
            assert_same_model(model, select(xs, y, fixed(cfg, lam)))
