"""Analysis toolbox: concentration bounds and moment predictions.

Implements the probabilistic machinery of the paper's Section IV:

* :mod:`repro.theory.concentration` — Chernoff bounds for (negatively
  associated) Bernoulli sums (Theorem 10) and Gaussian tail bounds with
  Mill's-ratio lower bounds (Theorem 11);
* :mod:`repro.theory.degrees` — degree moments and concentration
  intervals of the random pooling graph (Lemmas 3 and 4, Corollary 5);
* :mod:`repro.theory.neighborhood` — moments of the neighborhood sum
  ``Psi_j`` under the noise models (Lemmas 6-8, Corollary 9).

These serve the statistical test-suite, which checks the simulated
system against the paper's distributional claims. Nothing else in the
package imports them: the decoders and simulators do not depend on
this module.
"""

from repro.theory.concentration import (
    chernoff_lower_tail,
    chernoff_upper_tail,
    gaussian_tail_lower,
    gaussian_tail_upper,
)
from repro.theory.degrees import (
    degree_interval,
    distinct_degree_interval,
    expected_distinct_degree,
    expected_multi_degree,
)
from repro.theory.neighborhood import (
    NeighborhoodMoments,
    gaussian_noise_std,
    neighborhood_moments,
    second_neighborhood_size,
)

__all__ = [
    "chernoff_upper_tail",
    "chernoff_lower_tail",
    "gaussian_tail_upper",
    "gaussian_tail_lower",
    "expected_multi_degree",
    "expected_distinct_degree",
    "degree_interval",
    "distinct_degree_interval",
    "NeighborhoodMoments",
    "neighborhood_moments",
    "second_neighborhood_size",
    "gaussian_noise_std",
]
