"""Tests for the figure reproduction entry points (tiny grids)."""

import math

import pytest

import repro
from repro.experiments.figures import (
    FIGURES,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    run_figure,
)


TINY_NS = (60, 120)


class TestFigure2:
    def test_structure(self):
        result = figure2(n_values=TINY_NS, ps=(0.1,), trials=2, seed=0)
        assert result.figure == "fig2"
        sim = result.series("p=0.1")
        theory = result.series("theory p=0.1")
        assert len(sim) == len(TINY_NS)
        assert len(theory) == len(TINY_NS)
        for row in sim:
            assert row["required_m_median"] > 0

    def test_theory_rows_match_bound(self):
        result = figure2(n_values=(200,), ps=(0.1,), trials=1, seed=0)
        theory = result.series("theory p=0.1")[0]
        expected = repro.theorem1_sublinear_z(200, 0.25, 0.1, 0.05)
        assert theory["required_m_median"] == pytest.approx(expected)

    def test_render_contains_series(self):
        result = figure2(n_values=(60,), ps=(0.3,), trials=1, seed=0)
        text = result.render()
        assert "p=0.3" in text
        assert "fig2" in text

    def test_noisier_series_higher(self):
        result = figure2(n_values=(300,), ps=(0.0, 0.5), trials=4, seed=1)
        clean = result.series("p=0")[0]["required_m_median"]
        noisy = result.series("p=0.5")[0]["required_m_median"]
        assert noisy > clean

    def test_amp_required_m_curves_beside_greedy(self):
        # algorithms=("greedy", "amp") adds algorithm-prefixed series;
        # single-algorithm runs keep the historical unprefixed labels.
        result = figure2(
            n_values=(120,),
            ps=(0.1,),
            trials=2,
            seed=0,
            check_every=4,
            algorithms=("greedy", "amp"),
        )
        greedy = result.series("greedy p=0.1")
        amp = result.series("amp p=0.1")
        assert len(greedy) == len(amp) == 1
        assert greedy[0]["required_m_median"] > 0
        assert amp[0]["required_m_median"] > 0
        assert result.params["algorithms"] == ["greedy", "amp"]

    def test_figure5_amp_series(self):
        result = figure5(
            n_values=(120,),
            ps=(0.1,),
            lams=(),
            trials=2,
            seed=0,
            check_every=4,
            algorithms=("greedy", "amp"),
        )
        assert result.series("amp Z p=0.1")
        assert result.series("greedy Z p=0.1")


class TestFigure3:
    def test_structure(self):
        result = figure3(n_values=TINY_NS, lams=(1.0,), trials=2, seed=0)
        assert result.series("without noise")
        assert result.series("lambda=1")
        assert result.series("theory (Thm 2)")

    def test_noise_increases_queries(self):
        result = figure3(n_values=(300,), lams=(3.0,), trials=4, seed=2)
        clean = result.series("without noise")[0]["required_m_median"]
        noisy = result.series("lambda=3")[0]["required_m_median"]
        assert noisy > clean


class TestFigure4:
    def test_structure(self):
        result = figure4(n_values=TINY_NS, qs=(0.01,), trials=2, seed=0)
        assert result.series("q=0.01")
        assert result.series("theory q=0.01")

    def test_larger_q_needs_more_queries(self):
        result = figure4(n_values=(400,), qs=(1e-4, 0.1), trials=4, seed=3)
        small_q = result.series("q=0.0001")[0]["required_m_median"]
        large_q = result.series("q=0.1")[0]["required_m_median"]
        assert large_q > small_q

    def test_gnc_bound_scales_with_n(self):
        result = figure4(n_values=(100, 400), qs=(0.01,), trials=1, seed=0)
        theory = result.series("theory q=0.01")
        assert theory[1]["required_m_median"] > theory[0]["required_m_median"]


class TestFigure5:
    def test_structure(self):
        result = figure5(
            n_values=(120,), ps=(0.1,), lams=(0.0, 1.0), trials=6, seed=0
        )
        labels = {row["series"] for row in result.rows}
        assert labels == {"Z p=0.1", "lambda=0", "lambda=1"}
        for row in result.rows:
            assert row["q1"] <= row["median"] <= row["q3"]
            assert row["whisker_low"] <= row["q1"]
            assert row["q3"] <= row["whisker_high"]


class TestFigure6:
    def test_structure_and_phase_transition(self):
        result = figure6(
            n=150,
            ps=(0.1,),
            m_values=(10, 80, 200),
            trials=8,
            seed=0,
            algorithms=("greedy",),
        )
        rows = result.series("greedy p=0.1")
        assert [row["m"] for row in rows] == [10, 80, 200]
        assert rows[0]["success_rate"] <= rows[-1]["success_rate"]

    def test_amp_included(self):
        result = figure6(
            n=150, ps=(0.1,), m_values=(60,), trials=4, seed=0,
            algorithms=("greedy", "amp"),
        )
        assert result.series("amp p=0.1")
        assert result.series("greedy p=0.1")

    def test_theory_row(self):
        result = figure6(
            n=150, ps=(0.1,), m_values=(60,), trials=2, seed=0,
            algorithms=("greedy",),
        )
        theory = result.series("theory p=0.1")
        assert len(theory) == 1
        assert theory[0]["m"] == pytest.approx(
            repro.theorem1_sublinear_z(150, 0.25, 0.1, 0.1)
        )


    @pytest.mark.parametrize(
        "kwargs, repeated",
        [
            (dict(ps=(0.1, 0.1)), "ps"),
            (dict(ps=(0.1, 0.1000000001)), "ps"),  # same "p=0.1" label
            (dict(algorithms=("amp", "greedy", "amp")), "algorithms"),
        ],
    )
    def test_duplicate_series_rejected(self, kwargs, repeated):
        # Repeated entries would emit two identically labelled series
        # that FigureResult.series() silently merges.
        with pytest.raises(ValueError, match=f"duplicate {repeated}"):
            figure6(n=150, m_values=(60,), trials=2, seed=0, **kwargs)


class TestFigure7:
    def test_duplicate_ps_rejected(self):
        with pytest.raises(ValueError, match="duplicate ps"):
            figure7(n=150, ps=(0.3, 0.1, 0.3), m_values=(60,), trials=2)

    def test_overlap_curve(self):
        result = figure7(n=150, ps=(0.1,), m_values=(10, 150), trials=8, seed=0)
        rows = result.series("p=0.1")
        assert rows[0]["overlap"] <= rows[-1]["overlap"] + 0.2
        for row in rows:
            assert 0.0 <= row["overlap"] <= 1.0

    def test_overlap_dominates_success(self):
        result = figure7(n=150, ps=(0.3,), m_values=(60,), trials=10, seed=1)
        row = result.series("p=0.3")[0]
        assert row["overlap"] >= row["success_rate"] - 1e-9


class TestDesignAblation:
    def test_structure_and_comparable_designs(self):
        from repro.experiments.figures import figure_design_ablation

        result = figure_design_ablation(
            n_values=(200,), trials=8, m_points=8, seed=3
        )
        assert result.figure == "ablation_design"
        assert {row["series"] for row in result.rows} == {
            "replacement", "regular",
        }
        by_design = {row["series"]: row for row in result.rows}
        # Both designs must reach the 50% level on the grid and land in
        # the same order of magnitude (the paper's multigraph costs at
        # most a small constant over the regular design).
        for row in by_design.values():
            assert row["required_m_p50"] is not None
            assert row["n"] == 200
        ratio = (
            by_design["replacement"]["required_m_p50"]
            / by_design["regular"]["required_m_p50"]
        )
        assert 1 / 4 <= ratio <= 4, by_design

    def test_routed_through_engine_backends(self):
        # The ablation is a multi-cell plan like figures 2-5: sharding
        # it must not change a single row.
        from repro.experiments.figures import figure_design_ablation

        kwargs = dict(n_values=(150,), trials=6, m_points=6, seed=1)
        serial = figure_design_ablation(**kwargs)
        sharded = figure_design_ablation(workers=2, **kwargs)
        assert serial.rows == sharded.rows


class TestRunFigure:
    def test_dispatch(self):
        result = run_figure("fig2", n_values=(60,), ps=(0.1,), trials=1, seed=0)
        assert result.figure == "fig2"

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            run_figure("fig99")

    def test_all_figures_registered(self):
        assert set(FIGURES) == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ablation_design",
            "robustness_degradation", "robustness_loss", "robustness_comm",
        }


class TestFigureResultIO:
    def test_save_roundtrip(self, tmp_path):
        result = figure2(n_values=(60,), ps=(0.1,), trials=1, seed=0)
        result.save(tmp_path)
        assert (tmp_path / "fig2.json").exists()
        assert (tmp_path / "fig2.csv").exists()
        from repro.experiments.storage import load_csv, load_json

        blob = load_json(tmp_path / "fig2.json")
        assert blob["figure"] == "fig2"
        rows = load_csv(tmp_path / "fig2.csv")
        assert len(rows) == len(result.rows)
