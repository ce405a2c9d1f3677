"""Synthetic generators and panel plumbing."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal

from gaptrend import (
    LinearTrendSpec,
    McDesign,
    SmoothTransitionSpec,
    gen_errors,
    gen_mask,
    gen_trend,
    run_panel,
    simulate_series,
)
from gaptrend.awb import _stream
from gaptrend.exceptions import ReplicateError, SingularDesignError
from gaptrend.mcharness import (
    MISSING_TRANSITIONS,
    PANEL_FIELDS,
    _mix64,
    logistic_transition,
    panel_cells,
    run_break_ci_cell,
    run_break_test_cell,
    true_break_position,
    volatility_profile,
)


class TestErrors:
    def test_iid_case_variance_half(self):
        design = McDesign(n_time=10, phi=0.0, psi=0.0, sigma_eta=1.0)
        u = gen_errors(design, 10**6, np.random.default_rng(1))
        assert u.var() == pytest.approx(0.5, rel=0.01)

    def test_ar_case_variance_and_autocorrelation(self):
        # Oracle: stationary AR(1) moments with the stated innovation scale.
        design = McDesign(n_time=10, phi=0.5, psi=0.0, sigma_eta=1.0)
        u = gen_errors(design, 10**6, np.random.default_rng(2))
        assert u.var() == pytest.approx(0.5, rel=0.01)
        lag1 = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert lag1 == pytest.approx(0.5, abs=0.01)

    def test_ma_case_variance_preserved(self):
        design = McDesign(n_time=10, phi=0.0, psi=0.5, sigma_eta=2.0)
        u = gen_errors(design, 10**6, np.random.default_rng(3))
        assert u.var() == pytest.approx(2.0, rel=0.01)

    def test_volatility_profile_endpoints(self):
        assert volatility_profile(np.array([0.0]))[0] == pytest.approx(1.5)
        assert volatility_profile(np.array([1.0]))[0] == pytest.approx(2.5)

    def test_heteroskedastic_scaling(self):
        # Oracle: region-averaged squared volatility profile.
        design = McDesign(n_time=50_000, phi=0.0, psi=0.0, sigma_eta=1.0,
                          heteroskedastic=True)
        u = gen_errors(design, 50_000, np.random.default_rng(4))
        tau = np.arange(1, 50_001) / 50_000
        late, early = tau > 0.9, tau < 0.1
        expected = (volatility_profile(tau[late]) ** 2).mean() / (
            volatility_profile(tau[early]) ** 2
        ).mean()
        assert u[late].var() / u[early].var() == pytest.approx(expected, rel=0.1)

    @pytest.mark.parametrize(
        "phi, psi", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.6, 0.2), (-0.7, 0.3), (0.95, -0.9)]
    )
    def test_bit_identical_to_lfilter(self, phi, psi):
        # Oracle: the ARMA(1,1) filter of scipy on the same innovations.
        design = McDesign(n_time=666, phi=phi, psi=psi, sigma_eta=26.0)
        u = gen_errors(design, 666, np.random.default_rng(7))
        var_eps = (1 - phi * phi) * 26.0**2 / (2 * (1 + psi * psi + 2 * phi * psi))
        e = np.random.default_rng(7).normal(0.0, np.sqrt(var_eps), 200 + 666)
        expected = signal.lfilter([1.0, psi], [1.0, -phi], e)[200:]
        assert np.array_equal(u, expected)

    def test_explosive_ar_rejected(self):
        with pytest.raises(ValueError):
            McDesign(n_time=10, phi=1.0)


class TestMask:
    def test_stationary_fractions(self):
        rng = np.random.default_rng(5)
        m30 = gen_mask("30%", 10**6, rng)
        assert m30.mean() == pytest.approx(9 / 13, abs=0.01)
        m70 = gen_mask("70%", 10**6, np.random.default_rng(6))
        assert m70.mean() == pytest.approx(4 / 13, abs=0.01)

    def test_transition_frequencies(self):
        m = gen_mask("30%", 10**6, np.random.default_rng(7))
        prev, cur = m[:-1], m[1:]
        p01 = (cur[prev == 0] == 1).mean()
        p11 = (cur[prev == 1] == 1).mean()
        assert p01 == pytest.approx(0.45, abs=0.01)
        assert p11 == pytest.approx(0.80, abs=0.01)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            gen_mask("50%", 100, np.random.default_rng(0))

    @pytest.mark.parametrize("mode", ["30%", "70%"])
    def test_matches_numpy_scalar_chain(self, mode):
        # Oracle: the chain stepped over numpy scalars, entry by entry.
        def scalar_chain(mode, n_time, rng):
            P = MISSING_TRANSITIONS[mode]
            p_obs_stationary = P[0, 1] / (P[0, 1] + P[1, 0])
            u = rng.random(n_time)
            mask = np.empty(n_time, dtype=np.uint8)
            state = 1 if u[0] < p_obs_stationary else 0
            mask[0] = state
            for t in range(1, n_time):
                state = 1 if u[t] < P[state, 1] else 0
                mask[t] = state
            return mask

        for n_time in (285, 666, 3000):
            for seed in (0, 1, 17, 2**40 + 3):
                got = gen_mask(mode, n_time, _stream(seed, 0))
                assert got.dtype == np.uint8
                assert np.array_equal(got, scalar_chain(mode, n_time, _stream(seed, 0)))

    @pytest.mark.parametrize("mode", ["30%", "70%"])
    def test_matches_the_python_float_chain(self, mode):
        # Oracle: the chain stepped day by day over Python floats, which
        # compare exactly as the float64 draws and probabilities do, on
        # grids from one day to the panels' lengths.
        def python_chain(mode, n_time, rng):
            P = MISSING_TRANSITIONS[mode]
            p_obs = P[:, 1].tolist()
            u = rng.random(n_time).tolist()
            state = 1 if u[0] < float(P[0, 1] / (P[0, 1] + P[1, 0])) else 0
            states = [state]
            for x in u[1:]:
                state = 1 if x < p_obs[state] else 0
                states.append(state)
            return np.array(states, dtype=np.uint8)

        for seed in range(100):
            for n_time in (1, 2, 285, 666, 3000):
                got = gen_mask(mode, n_time, _stream(seed, 0))
                assert got.tobytes() == python_chain(mode, n_time, _stream(seed, 0)).tobytes()

    def test_refuses_a_chain_likelier_to_observe_after_a_gap(self, monkeypatch):
        # The running-maximum rule needs an observation to be likelier
        # after an observed day than after a missing one.
        monkeypatch.setitem(MISSING_TRANSITIONS, "30%", np.array([[0.2, 0.8], [0.55, 0.45]]))
        with pytest.raises(ValueError, match="likelier after an observed day"):
            gen_mask("30%", 100, np.random.default_rng(0))


class TestTrend:
    def test_logistic_center_is_half(self):
        for lam in (1.0, 10.0, 50.0):
            assert logistic_transition(np.array([0.3]), lam, 0.3)[0] == pytest.approx(0.5)

    def test_smooth_transition_shape(self):
        g = gen_trend(SmoothTransitionSpec(), 1000)
        tau = np.arange(1, 1001) / 1000.0
        rise = (tau > 0.05) & (tau < 0.40)
        fall = (tau > 0.65) & (tau < 0.95)
        assert np.all(np.diff(g[rise]) > 0)
        assert np.all(np.diff(g[fall]) < 0)
        peak = tau[np.argmax(g)]
        assert 0.3 < peak <= 0.6
        assert g[0] == pytest.approx(1.118, abs=0.01)

    def test_linear_exact_slope(self):
        g = gen_trend(LinearTrendSpec(4000.0, -0.5, 0.0, 0.6, "grid"), 500)
        steps = np.diff(g)
        assert np.allclose(steps, -0.5)
        assert g[0] == pytest.approx(4000.0 - 0.5)

    def test_kink_position_and_slopes(self):
        spec = LinearTrendSpec(4000.0, -0.5, 1.0, 0.6, "grid")
        g = gen_trend(spec, 500)
        kink = round(0.6 * 500)
        steps = np.diff(g)
        assert np.allclose(steps[: kink - 1], -0.5)
        assert np.allclose(steps[kink:], 0.5)

    def test_rescaled_unit(self):
        g = gen_trend(LinearTrendSpec(0.0, 1.0, 0.0, 0.5, "rescaled"), 200)
        assert g[-1] == pytest.approx(1.0)
        assert g[99] == pytest.approx(0.5)

    def test_true_break_position(self):
        design = McDesign(n_time=666, trend=LinearTrendSpec(break_fraction=0.6))
        assert true_break_position(design) == 400
        with pytest.raises(ValueError):
            true_break_position(McDesign(n_time=10, trend=SmoothTransitionSpec()))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LinearTrendSpec(time_unit="weeks")
        with pytest.raises(ValueError):
            LinearTrendSpec(break_fraction=1.2)


class TestSimulation:
    def test_deterministic_per_draw(self):
        design = McDesign(n_time=200, missing="30%", seed=11, replications=2, n_boot=9)
        a = simulate_series(design, 3)
        b = simulate_series(design, 3)
        c = simulate_series(design, 4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.mask, b.mask)
        assert not np.array_equal(a.values, c.values)

    def test_masked_positions_zeroed(self):
        design = McDesign(n_time=300, missing="70%", seed=2)
        s = simulate_series(design, 0)
        assert np.all(s.values[s.mask == 0] == 0.0)

    def test_single_replication_rate_is_binary(self):
        design = McDesign(
            n_time=120, missing="30%", sigma_eta=26.0,
            trend=LinearTrendSpec(4000.0, -0.5, 0.0, 0.6, "grid"),
            replications=1, n_boot=19, seed=3,
        )
        result = run_break_test_cell(design)
        rate = result.estimates["rejection_rate"][0]
        assert rate in (0.0, 1.0)

    def test_break_test_cell_builds_one_scan_per_draw(self, scan_calls, multiplier_draws):
        # The test bootstraps the draw's fit: its replicates rescan the
        # fit's own scan, and the series is scanned once, by the estimate.
        # At T=120 the 9 replicates of a draw are one block: one draw and
        # one scan of 9 rows.
        design = McDesign(
            n_time=120, missing="30%", sigma_eta=26.0,
            trend=LinearTrendSpec(4000.0, -0.5, 0.5, 0.6, "grid"),
            replications=3, n_boot=9, seed=3,
        )
        result = run_break_test_cell(design)
        assert (result.n_effective, result.failures) == (3, 0)
        assert scan_calls == {"init": 3, "scan": [1, 9] * 3}
        assert multiplier_draws == [list(range(9))] * 3

    def test_break_ci_cell_builds_one_scan_per_draw(self, scan_calls, multiplier_draws):
        design = McDesign(
            n_time=120, missing="30%", sigma_eta=26.0,
            trend=LinearTrendSpec(4000.0, -0.5, 0.5, 0.6, "grid"),
            replications=3, n_boot=9, seed=3,
        )
        result = run_break_ci_cell(design)
        assert (result.n_effective, result.failures) == (3, 0)
        assert scan_calls == {"init": 3, "scan": [1, 9] * 3}
        assert multiplier_draws == [list(range(9))] * 3


class TestCells:
    def test_cell_without_usable_draws_reports_nan(self):
        # Every draw leaves too few observed days beyond the trimming edge.
        design = McDesign(n_time=20, missing="70%", replications=3, n_boot=19)
        result = run_break_test_cell(design)
        assert (result.n_effective, result.failures) == (0, 3)
        assert np.isnan(result.estimates["rejection_rate"]).all()

    def test_only_domain_errors_count_as_failed_draws(self, monkeypatch):
        import gaptrend.mcharness as mc

        design = McDesign(n_time=120, replications=2, n_boot=19, seed=3)

        def failing_replicate(cause):
            def fake(*_args, **_kwargs):
                raise ReplicateError(range(0, 7), str(cause)) from cause
            return fake

        monkeypatch.setattr(mc, "break_test", failing_replicate(SingularDesignError("singular")))
        assert run_break_test_cell(design).failures == 2
        monkeypatch.setattr(mc, "break_test", failing_replicate(TypeError("bug")))
        with pytest.raises(ReplicateError):
            run_break_test_cell(design)
        monkeypatch.setattr(mc, "break_test", lambda *_args, **_kwargs: {}["bug"])
        with pytest.raises(KeyError):
            run_break_test_cell(design)


# Design columns of every panel row (panel,T,missing,phi,psi,volatility,
# trend,delta,h), one line per cell in table order, and the statistics
# each cell reports.
_PANEL_LABELS = {
    "A": (("rejection_rate",), """
        A,285,30%,0.0,0.0,constant,kinked-linear,0.0,
        A,285,30%,0.0,0.0,constant,kinked-linear,0.05,
        A,285,30%,0.0,0.0,constant,kinked-linear,0.1,
        A,666,70%,0.0,0.0,constant,kinked-linear,0.0,
        A,666,70%,0.0,0.0,constant,kinked-linear,0.05,
        A,666,70%,0.0,0.0,constant,kinked-linear,0.1,
        A,666,30%,0.0,0.0,constant,kinked-linear,0.0,
        A,666,30%,0.0,0.0,constant,kinked-linear,0.05,
        A,666,30%,0.0,0.0,constant,kinked-linear,0.1,
        A,285,30%,0.0,0.0,varying,kinked-linear,0.0,
        A,285,30%,0.0,0.0,varying,kinked-linear,0.05,
        A,285,30%,0.0,0.0,varying,kinked-linear,0.1,
        A,666,70%,0.0,0.0,varying,kinked-linear,0.0,
        A,666,70%,0.0,0.0,varying,kinked-linear,0.05,
        A,666,70%,0.0,0.0,varying,kinked-linear,0.1,
        A,666,30%,0.0,0.0,varying,kinked-linear,0.0,
        A,666,30%,0.0,0.0,varying,kinked-linear,0.05,
        A,666,30%,0.0,0.0,varying,kinked-linear,0.1,
        A,285,30%,0.5,0.0,constant,kinked-linear,0.0,
        A,285,30%,0.5,0.0,constant,kinked-linear,0.05,
        A,285,30%,0.5,0.0,constant,kinked-linear,0.1,
        A,666,70%,0.5,0.0,constant,kinked-linear,0.0,
        A,666,70%,0.5,0.0,constant,kinked-linear,0.05,
        A,666,70%,0.5,0.0,constant,kinked-linear,0.1,
        A,666,30%,0.5,0.0,constant,kinked-linear,0.0,
        A,666,30%,0.5,0.0,constant,kinked-linear,0.05,
        A,666,30%,0.5,0.0,constant,kinked-linear,0.1,
        A,285,30%,0.5,0.0,varying,kinked-linear,0.0,
        A,285,30%,0.5,0.0,varying,kinked-linear,0.05,
        A,285,30%,0.5,0.0,varying,kinked-linear,0.1,
        A,666,70%,0.5,0.0,varying,kinked-linear,0.0,
        A,666,70%,0.5,0.0,varying,kinked-linear,0.05,
        A,666,70%,0.5,0.0,varying,kinked-linear,0.1,
        A,666,30%,0.5,0.0,varying,kinked-linear,0.0,
        A,666,30%,0.5,0.0,varying,kinked-linear,0.05,
        A,666,30%,0.5,0.0,varying,kinked-linear,0.1,
        A,285,30%,0.0,0.5,constant,kinked-linear,0.0,
        A,285,30%,0.0,0.5,constant,kinked-linear,0.05,
        A,285,30%,0.0,0.5,constant,kinked-linear,0.1,
        A,666,70%,0.0,0.5,constant,kinked-linear,0.0,
        A,666,70%,0.0,0.5,constant,kinked-linear,0.05,
        A,666,70%,0.0,0.5,constant,kinked-linear,0.1,
        A,666,30%,0.0,0.5,constant,kinked-linear,0.0,
        A,666,30%,0.0,0.5,constant,kinked-linear,0.05,
        A,666,30%,0.0,0.5,constant,kinked-linear,0.1,
        A,285,30%,0.0,0.5,varying,kinked-linear,0.0,
        A,285,30%,0.0,0.5,varying,kinked-linear,0.05,
        A,285,30%,0.0,0.5,varying,kinked-linear,0.1,
        A,666,70%,0.0,0.5,varying,kinked-linear,0.0,
        A,666,70%,0.0,0.5,varying,kinked-linear,0.05,
        A,666,70%,0.0,0.5,varying,kinked-linear,0.1,
        A,666,30%,0.0,0.5,varying,kinked-linear,0.0,
        A,666,30%,0.0,0.5,varying,kinked-linear,0.05,
        A,666,30%,0.0,0.5,varying,kinked-linear,0.1,
    """.split()),
    "B": (("coverage", "mean_length"), """
        B,285,30%,0.0,0.0,constant,kinked-linear,1.0,
        B,666,70%,0.0,0.0,constant,kinked-linear,1.0,
        B,666,30%,0.0,0.0,constant,kinked-linear,1.0,
        B,285,30%,0.0,0.0,varying,kinked-linear,1.0,
        B,666,70%,0.0,0.0,varying,kinked-linear,1.0,
        B,666,30%,0.0,0.0,varying,kinked-linear,1.0,
        B,285,30%,0.5,0.0,constant,kinked-linear,1.0,
        B,666,70%,0.5,0.0,constant,kinked-linear,1.0,
        B,666,30%,0.5,0.0,constant,kinked-linear,1.0,
        B,285,30%,0.5,0.0,varying,kinked-linear,1.0,
        B,666,70%,0.5,0.0,varying,kinked-linear,1.0,
        B,666,30%,0.5,0.0,varying,kinked-linear,1.0,
        B,285,30%,0.0,0.5,constant,kinked-linear,1.0,
        B,666,70%,0.0,0.5,constant,kinked-linear,1.0,
        B,666,30%,0.0,0.5,constant,kinked-linear,1.0,
        B,285,30%,0.0,0.5,varying,kinked-linear,1.0,
        B,666,70%,0.0,0.5,varying,kinked-linear,1.0,
        B,666,30%,0.0,0.5,varying,kinked-linear,1.0,
    """.split()),
    "C": (("rejection_rate_ave", "rejection_rate_sup"), """
        C,285,30%,0.1,0.0,constant,linear,,0.04
        C,285,30%,0.1,0.0,constant,smooth-transition,,0.04
        C,666,70%,0.1,0.0,constant,linear,,0.04
        C,666,70%,0.1,0.0,constant,smooth-transition,,0.04
        C,666,30%,0.1,0.0,constant,linear,,0.04
        C,666,30%,0.1,0.0,constant,smooth-transition,,0.04
        C,285,30%,0.1,0.0,constant,linear,,0.06
        C,285,30%,0.1,0.0,constant,smooth-transition,,0.06
        C,666,70%,0.1,0.0,constant,linear,,0.06
        C,666,70%,0.1,0.0,constant,smooth-transition,,0.06
        C,666,30%,0.1,0.0,constant,linear,,0.06
        C,666,30%,0.1,0.0,constant,smooth-transition,,0.06
        C,285,30%,0.1,0.0,constant,linear,,0.08
        C,285,30%,0.1,0.0,constant,smooth-transition,,0.08
        C,666,70%,0.1,0.0,constant,linear,,0.08
        C,666,70%,0.1,0.0,constant,smooth-transition,,0.08
        C,666,30%,0.1,0.0,constant,linear,,0.08
        C,666,30%,0.1,0.0,constant,smooth-transition,,0.08
    """.split()),
    "D": (("rejection_rate_sign", "rejection_rate_magnitude"), """
        D,285,30%,0.1,0.0,constant,linear,,0.04
        D,285,30%,0.1,0.0,constant,smooth-transition,,0.04
        D,666,70%,0.1,0.0,constant,linear,,0.04
        D,666,70%,0.1,0.0,constant,smooth-transition,,0.04
        D,285,30%,0.1,0.0,constant,linear,,0.06
        D,285,30%,0.1,0.0,constant,smooth-transition,,0.06
        D,666,70%,0.1,0.0,constant,linear,,0.06
        D,666,70%,0.1,0.0,constant,smooth-transition,,0.06
        D,285,30%,0.1,0.0,constant,linear,,0.08
        D,285,30%,0.1,0.0,constant,smooth-transition,,0.08
        D,666,70%,0.1,0.0,constant,linear,,0.08
        D,666,70%,0.1,0.0,constant,smooth-transition,,0.08
    """.split()),
}


class TestPanels:
    def test_cell_grids(self):
        cells_a = panel_cells("A", 2, 19, 0)
        assert len(cells_a) == 3 * 2 * 3 * 3  # arma x vol x samples x deltas
        cells_b = panel_cells("B", 2, 19, 0)
        assert len(cells_b) == 3 * 2 * 3
        cells_c = panel_cells("C", 2, 19, 0)
        assert len(cells_c) == 3 * 3 * 2
        cells_d = panel_cells("D", 2, 19, 0)
        assert len(cells_d) == 3 * 2 * 2
        assert [d.seed for d in cells_c] == [_mix64(0, i) for i in range(len(cells_c))]
        with pytest.raises(ValueError):
            panel_cells("E", 2, 19, 0)

    @pytest.mark.parametrize("panel", sorted(_PANEL_LABELS))
    def test_label_columns(self, panel):
        stats, cells = _PANEL_LABELS[panel]
        rows = run_panel(panel, 1, 9, 5)
        got = [(",".join(str(r[f]) for f in PANEL_FIELDS[:9]), r["statistic"]) for r in rows]
        assert got == [(cell, stat) for cell in cells for stat in stats]

    def test_run_panel_deterministic_rows(self):
        rows1 = run_panel("B", replications=2, n_boot=19, seed=5)
        rows2 = run_panel("B", replications=2, n_boot=19, seed=5)
        assert rows1 == rows2
        assert all(set(PANEL_FIELDS) >= set(r.keys()) for r in rows1)
        stats = {r["statistic"] for r in rows1}
        assert stats == {"coverage", "mean_length"}

    def test_rows_report_the_requested_sizes(self):
        rows = run_panel("B", replications=1, n_boot=9, seed=5)
        assert all(r["replications"] == 1 for r in rows)
        assert all(r["n_boot"] == 9 for r in rows)
        with pytest.raises(ValueError, match="replications"):
            run_panel("B", replications=0)
        with pytest.raises(ValueError, match="n_boot"):
            run_panel("B", replications=1, n_boot=0)
