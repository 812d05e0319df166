import json

import numpy as np
import pytest

from knotselect.lsq import DataError
from knotselect.search import select
from knotselect.sim import (
    TRUTHS,
    ConfigError,
    SimScenario,
    builtin_scenario,
    format_table,
    generate,
    load_scenarios,
    run,
    truth_coefficients,
)


def small_scenario(**kw):
    base = dict(
        truth_knots=TRUTHS["one-knot"],
        snr=6.0,
        n=100,
        replications=5,
        seed=42,
        name="one-knot-snr6-n100",
    )
    base.update(kw)
    return SimScenario(**base)


class TestTruthSignal:
    def test_peak_is_ten(self):
        for knots in TRUTHS.values():
            sc = SimScenario(
                truth_knots=knots, snr=3.0, n=2001, replications=1, seed=0
            )
            f = sc.truth_signal(np.linspace(0, 100, 2001))
            assert np.max(np.abs(f)) == pytest.approx(10.0, rel=1e-12)

    def test_coefficients_alternate_in_sign(self):
        coef = truth_coefficients(TRUTHS["three-knots"])
        inner = np.asarray(coef[1:-1])
        assert coef[0] == 0.0 and coef[-1] == 0.0
        assert np.all(inner[::2] > 0) and np.all(inner[1::2] < 0)


class TestGenerate:
    def test_deterministic_per_rep(self):
        sc = small_scenario()
        xs1, y1 = generate(sc, 3)
        xs2, y2 = generate(sc, 3)
        assert xs1.tolist() == xs2.tolist()
        assert y1.tolist() == y2.tolist()

    def test_reps_differ(self):
        sc = small_scenario()
        _, y1 = generate(sc, 0)
        _, y2 = generate(sc, 1)
        assert not np.array_equal(y1, y2)

    def test_design_is_equispaced(self):
        xs, _ = generate(small_scenario(n=51), 0)
        assert xs[0] == 0.0 and xs[-1] == 100.0
        assert np.allclose(np.diff(xs), 2.0)

    def test_snr_calibration(self):
        # empirical noise sd over many points should match sd(f)/snr
        sc = small_scenario(n=10000, snr=4.0)
        xs, y = generate(sc, 0)
        f = sc.truth_signal(xs)
        ratio = np.std(y - f) / (np.std(f) / sc.snr)
        assert ratio == pytest.approx(1.0, rel=0.05)


class TestRun:
    def test_single_replication(self):
        rep = run(small_scenario(replications=1, snr=9.0, n=200))
        assert rep.n_total == 1
        assert rep.failures == 0
        assert rep.prop_correct_k in (0.0, 1.0)

    def test_reproducible(self):
        sc = small_scenario(replications=4, n=200)
        a, b = run(sc), run(sc)
        assert a.to_json() == b.to_json()

    def test_timing_out_of_default_payload(self):
        rep = run(small_scenario(replications=2, n=100))
        assert "mean_rep_seconds" not in rep.to_dict()
        assert "mean_rep_seconds" in rep.to_dict(include_timing=True)

    def test_knot_stats_shape(self):
        rep = run(small_scenario(replications=8, snr=9.0, n=200))
        if rep.n_correct:
            assert len(rep.knot_stats) == 1
            st = rep.knot_stats[0]
            assert st.ci_low <= st.median <= st.ci_high
            assert len(rep.knot_samples) == rep.n_correct

    def test_khat_counts_sum(self):
        rep = run(small_scenario(replications=6, n=150))
        assert sum(rep.khat_counts.values()) == rep.n_total - rep.failures

    def test_data_errors_counted_programming_errors_raised(self, monkeypatch):
        import knotselect.sim as sim_mod

        def bad_data(xs, ys, cfg):
            return [DataError("bad replication")] * ys.shape[1]

        monkeypatch.setattr(sim_mod, "select_many", bad_data)
        rep = run(small_scenario(replications=3))
        assert rep.failures == 3 and rep.n_total == 3

        def broken(xs, ys, cfg):
            raise TypeError("bug in the search")

        monkeypatch.setattr(sim_mod, "select_many", broken)
        with pytest.raises(TypeError, match="bug in the search"):
            run(small_scenario(replications=3))

    def test_one_failed_replication_counted_once(self, monkeypatch):
        import knotselect.sim as sim_mod

        sc = small_scenario(replications=4)
        assert run(sc).failures == 0
        noisy = sim_mod._noisy

        def nan_in_rep_2(scenario, rep, f, sigma):
            y = noisy(scenario, rep, f, sigma)
            if rep == 2:
                y[7] = np.nan
            return y

        monkeypatch.setattr(sim_mod, "_noisy", nan_in_rep_2)
        rep = run(sc)
        assert rep.failures == 1 and rep.n_total == 4
        assert sum(rep.khat_counts.values()) == 3
        # the other replications keep the models they get alone
        xs, f, sigma = sim_mod._design(sc)
        cfg = sim_mod._search_config(sc)
        kept = [select(xs, noisy(sc, r, f, sigma), cfg) for r in (0, 1, 3)]
        assert rep.knot_samples == [list(m.knots.knots) for m in kept if m.k == 1]

    def test_blocks_of_at_most_the_grid_size(self, monkeypatch):
        import knotselect.sim as sim_mod

        widths = []
        inner = sim_mod.select_many

        def counted(xs, ys, cfg):
            widths.append(ys.shape[1])
            return inner(xs, ys, cfg)

        monkeypatch.setattr(sim_mod, "select_many", counted)
        sc = small_scenario(replications=5, grid_step=30.0, delta=10.0)
        rep = run(sc)
        assert widths == [3, 2]  # grid 30, 60, 90
        xs, f, sigma = sim_mod._design(sc)
        cfg = sim_mod._search_config(sc)
        ks = [select(xs, sim_mod._noisy(sc, r, f, sigma), cfg).k for r in range(5)]
        assert rep.khat_counts == {k: ks.count(k) for k in set(ks)}


class TestFormatTable:
    def test_contains_scenario_row(self):
        rep = run(small_scenario(replications=5, snr=9.0, n=200))
        text = format_table([rep])
        assert "SNR" in text and "Median" in text
        assert "200" in text and "9" in text


class TestBuiltinScenario:
    def test_parses_name(self):
        sc = builtin_scenario("three-knots-snr9-n100", replications=7, seed=3)
        assert sc.truth_knots == (25.0, 50.0, 75.0)
        assert sc.snr == 9.0 and sc.n == 100
        assert sc.replications == 7 and sc.seed == 3

    def test_bad_names(self):
        for bad in ("three-knots", "four-knots-snr9-n100", "one-knot-snrX-n100"):
            with pytest.raises(ConfigError):
                builtin_scenario(bad)


class TestLoadScenarios:
    def test_good_file(self, tmp_path):
        doc = {
            "scenarios": [
                {"truth": "one-knot", "snr": 3, "n": 100, "replications": 2},
                {"truth": [30.0, 70.0], "snr": 6, "n": 200, "replications": 2, "seed": 5},
            ]
        }
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(doc))
        scs = load_scenarios(p)
        assert len(scs) == 2
        assert scs[0].truth_knots == (50.0,)
        assert scs[1].truth_knots == (30.0, 70.0) and scs[1].seed == 5

    def test_single_object(self, tmp_path):
        p = tmp_path / "one.json"
        p.write_text('{"truth": "two-knots", "snr": 3, "n": 100, "replications": 1}')
        assert load_scenarios(p)[0].truth_knots == (25.0, 75.0)

    def test_error_names_key_path(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"scenarios": [{"truth": "one-knot", "snr": 3, "n": 100}]}')
        with pytest.raises(ConfigError, match=r"\$\.scenarios\[0\]\.replications"):
            load_scenarios(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad2.json"
        p.write_text(
            '{"truth": "one-knot", "snr": 3, "n": 100, "replications": 1, "bogus": 1}'
        )
        with pytest.raises(ConfigError, match="bogus"):
            load_scenarios(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenarios(p)


class TestScenarioValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            small_scenario(snr=0.0)
        with pytest.raises(ConfigError):
            small_scenario(n=5)
        with pytest.raises(ConfigError):
            small_scenario(replications=0)
