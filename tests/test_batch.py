"""select_many: every column's model equals a separate select on that column."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotselect import search
from knotselect.basis import BasisFamily, BasisSpec, Domain, KnotConfig, design_matrix
from knotselect.criterion import LambdaPolicy, Penalty
from knotselect.lsq import DataError
from knotselect.search import SearchConfig, select, select_many

TP = BasisFamily.TRUNCATED_POWER
BS = BasisFamily.BSPLINE
NC = BasisFamily.NATURAL_CUBIC


def assert_same(got, y, xs, cfg):
    """``got`` is exactly what select(xs, y, cfg) returns or raises."""
    try:
        want = select(xs, y, cfg)
    except (DataError, np.linalg.LinAlgError) as exc:
        assert type(got) is type(exc) and str(got) == str(exc)
        return
    assert got.knots.knots == want.knots.knots
    assert got.basis == want.basis
    assert got.rss == want.rss
    assert got.pss == want.pss
    assert got.lambda_used == want.lambda_used
    assert np.array_equal(got.coefficients, want.coefficients)


@st.composite
def batches(draw):
    """Batches over every family that mix noiseless columns, which tie exactly, with noisy ones.

    A noiseless column is a spline with knots on the candidate grid, so
    every placement that contains them fits exactly; patience 1 and small
    ``k_max`` stop some columns before the two-knot scan.
    """
    family = draw(st.sampled_from([TP, BS, NC]))
    degree = 3 if family is NC else draw(st.integers(1, 3))
    spec = BasisSpec(family, degree)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(16, 36))
    layout = draw(st.sampled_from(["even", "scattered", "duplicated"]))
    if layout == "even":
        xs = np.linspace(0.0, 10.0, n)
    elif layout == "scattered":
        xs = np.sort(rng.uniform(0.0, 10.0, n))
        xs[0], xs[-1] = 0.0, 10.0
    else:  # about two observations per distinct x
        xs = np.sort(rng.choice(np.linspace(0.0, 10.0, n // 2 + 1), n))
        xs[0], xs[-1] = 0.0, 10.0
    if draw(st.booleans()):
        grid = tuple(float(g) for g in np.arange(1.0, 10.0, draw(st.sampled_from([0.5, 1.0]))))
    else:
        grid = None
    cand = np.asarray(grid) if grid is not None else np.unique(xs)[1:-1]
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        inner = cand[(cand > 2.0) & (cand < 8.0)]
        count = min(draw(st.integers(0, 2)), inner.size)
        truth = tuple(sorted(rng.choice(inner, count, replace=False)))
        if len(truth) == 2 and truth[1] - truth[0] < 1.5:
            truth = truth[:1]
        truth_spec = BasisSpec(TP, 3) if family is NC and len(truth) < 2 else spec
        kc = KnotConfig(tuple(float(t) for t in truth), Domain(0.0, 10.0))
        X = design_matrix(xs, truth_spec, kc)
        y = X @ rng.normal(size=X.shape[1]) * draw(st.sampled_from([1.0, 1e3]))
        if draw(st.booleans()):  # noisy
            y = y + rng.normal(0.0, draw(st.sampled_from([0.01, 0.3])), n)
        columns.append(y)
    lam = draw(st.sampled_from([None, 1e-40, 1e-9, 1.0]))
    penalty = Penalty() if lam is None else Penalty(policy=LambdaPolicy.FIXED, lam=lam)
    cfg = SearchConfig(
        basis=spec,
        delta=draw(st.sampled_from([0.6, 1.2, 2.5])),
        k_max=draw(st.integers(0, 4)),
        candidate_grid=grid,
        penalty=penalty,
        exclude_left_frac=draw(st.sampled_from([0.0, 0.0, 0.25])),
        patience=draw(st.integers(1, 3)),
    )
    return xs, np.column_stack(columns), cfg


class TestSelectMany:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(batches())
    def test_each_column_equals_its_own_select(self, batch):
        xs, ys, cfg = batch
        models = select_many(xs, ys, cfg)
        assert len(models) == ys.shape[1]
        for r, got in enumerate(models):
            assert_same(got, ys[:, r], xs, cfg)

    @pytest.mark.parametrize("family,degree", [(TP, 1), (BS, 3), (NC, 3)])
    def test_scan_values_of_a_batch_equal_one_response_bit_for_bit(self, family, degree):
        # the k <= 2 scans extend the empty set and single knots for every
        # response at once; each response must get the bits it gets alone
        rng = np.random.default_rng(4)
        xs = np.sort(rng.uniform(0.0, 10.0, 80))
        Y = np.sin(xs) + rng.normal(0.0, 0.2, (9, xs.size))
        design = search._Design(xs, xs[1:-1], Domain(xs[0], xs[-1]), BasisSpec(family, degree))
        batch = search._Responses.of(design, Y)
        alone = [search._Responses.of(design, Y[r : r + 1]) for r in range(len(Y))]
        for idx in [(), (3,), (40,), (77,)]:
            vals = batch.extend(idx)
            for r, one in enumerate(alone):
                assert np.array_equal(vals[r], one.extend(idx)[0])

    def test_bad_column_fails_alone(self):
        xs = np.linspace(0.0, 10.0, 30)
        good = np.abs(xs - 4.0) + np.sin(3.0 * xs)
        ys = np.column_stack([good, good.copy(), good[::-1]])
        ys[5, 1] = np.inf
        cfg = SearchConfig(basis=BasisSpec(TP, 1), delta=1.0)
        models = select_many(xs, ys, cfg)
        assert isinstance(models[1], DataError)
        for r in (0, 2):
            assert_same(models[r], ys[:, r], xs, cfg)

    def test_fault_of_x_fails_every_column(self):
        xs = np.full(20, 3.0)
        models = select_many(xs, np.ones((20, 3)), SearchConfig(basis=BasisSpec(TP, 1)))
        assert all(isinstance(m, DataError) and "constant x" in str(m) for m in models)

    def test_refit_errors_fill_their_slot_others_raise(self, monkeypatch):
        xs = np.linspace(0.0, 10.0, 30)
        ys = np.column_stack([np.abs(xs - 4.0), 2.0 * np.abs(xs - 6.0)])
        cfg = SearchConfig(basis=BasisSpec(TP, 1), delta=1.0)
        solve = search.lsq.solve

        def failing(exc):
            def fake(X, y):
                if y[0] > 5.0:  # only the second column starts above 5
                    raise exc
                return solve(X, y)

            return fake

        monkeypatch.setattr(search.lsq, "solve", failing(np.linalg.LinAlgError("svd")))
        models = select_many(xs, ys, cfg)
        assert isinstance(models[1], np.linalg.LinAlgError)
        assert_same(models[0], ys[:, 0], xs, cfg)
        monkeypatch.setattr(search.lsq, "solve", failing(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            select_many(xs, ys, cfg)

    def test_stopping_at_one_knot_skips_the_pair_scan(self, monkeypatch):
        # a line: one knot does not beat none, so patience 1 stops at k = 1
        xs = np.linspace(0.0, 10.0, 30)
        cfg = SearchConfig(basis=BasisSpec(TP, 1), delta=1.0, patience=1)
        scans = []
        inner = search._scan_pairs

        def counted(engine, *args):
            scans.append(engine.rss0.size)
            return inner(engine, *args)

        monkeypatch.setattr(search, "_scan_pairs", counted)
        assert select(xs, 1.0 + 2.0 * xs, cfg).k == 0
        assert scans == []
        kink = np.abs(xs - 5.0)
        select_many(xs, np.column_stack([1.0 + 2.0 * xs, kink, kink + 0.1 * np.sin(xs)]), cfg)
        assert scans == [2]  # one pair scan, for the two columns that went on

    def test_empty_batch_and_shape(self):
        xs = np.linspace(0.0, 10.0, 30)
        cfg = SearchConfig(basis=BasisSpec(TP, 1))
        assert select_many(xs, np.empty((30, 0)), cfg) == []
        with pytest.raises(ValueError):
            select_many(xs, xs, cfg)
