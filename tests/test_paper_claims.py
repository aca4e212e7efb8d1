"""The paper's Figure 6 claims, checked statistically at small n.

Figure 6 compares greedy with AMP on the Z-channel: both show a phase
transition in m, AMP's sits at smaller m, and a noisier channel moves
greedy's transition right. Each claim below is tested with Wilson
score intervals (:func:`repro.experiments.stats.binomial_confidence`)
rather than fudge constants: a failure means the claim is contradicted
at 95% confidence on this fixed seed, not that noise crossed a margin.

The sweep runs once per module (n=300, 30 trials per point). Its series
share their instances — every cell samples the same truth and graph
per ``(m, trial)`` — so the sweep engine draws each instance once.
"""

import pytest

from repro.experiments.figures import figure6
from repro.experiments.stats import binomial_confidence

N = 300
TRIALS = 30
M_VALUES = list(range(20, 301, 40))
SEED = 2022


@pytest.fixture(scope="module")
def fig6():
    """``{series: {m: successes}}`` of one small Figure 6 sweep."""
    result = figure6(
        n=N, ps=(0.1, 0.3), m_values=M_VALUES, trials=TRIALS, seed=SEED,
        backend="serial",
    )
    return {
        series: {
            row["m"]: round(row["success_rate"] * TRIALS)
            for row in result.series(series)
        }
        for series in ("greedy p=0.1", "amp p=0.1", "greedy p=0.3",
                       "amp p=0.3")
    }


def interval(fig6, series, m):
    return binomial_confidence(fig6[series][m], TRIALS)


@pytest.mark.parametrize("m", M_VALUES)
def test_amp_not_below_greedy(fig6, m):
    """AMP at p=0.1 is never statistically less successful than greedy."""
    _, amp_high = interval(fig6, "amp p=0.1", m)
    greedy_low, _ = interval(fig6, "greedy p=0.1", m)
    assert amp_high >= greedy_low


def test_amp_transition_sits_at_smaller_m(fig6):
    """Somewhere in the window AMP is significantly ahead of greedy."""
    ahead = [
        m for m in M_VALUES
        if interval(fig6, "amp p=0.1", m)[0]
        > interval(fig6, "greedy p=0.1", m)[1]
    ]
    assert ahead


@pytest.mark.parametrize("m", M_VALUES)
def test_noisier_channel_does_not_help_greedy(fig6, m):
    """Greedy at p=0.3 never beats p=0.1 with statistical significance."""
    low_03, _ = interval(fig6, "greedy p=0.3", m)
    _, high_01 = interval(fig6, "greedy p=0.1", m)
    assert low_03 <= high_01


@pytest.mark.parametrize(
    "series", ["greedy p=0.1", "amp p=0.1", "greedy p=0.3", "amp p=0.3"]
)
def test_phase_transition(fig6, series):
    """Success rises significantly from the smallest to the largest m."""
    _, first_high = interval(fig6, series, M_VALUES[0])
    last_low, _ = interval(fig6, series, M_VALUES[-1])
    assert first_high < last_low
