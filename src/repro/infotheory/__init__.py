"""Information-theoretic formulation of temporal privacy (paper §3).

Temporal privacy is defined as the mutual information
``I(X; Z) = h(Z) - h(Y)`` between packet creation times ``X`` and
arrival times ``Z = X + Y`` observed by the adversary, where ``Y`` is
the artificial buffering delay.  This subpackage implements:

* closed-form differential entropies of the distributions involved
  (:mod:`repro.infotheory.entropy`),
* the entropy-power-inequality lower bound of Equation (2) and the
  Anantharam--Verdu "bits through queues" upper bound of Equation (4)
  (:mod:`repro.infotheory.bounds`),
* empirical mutual-information estimators -- plug-in histogram and
  Kraskov kNN -- for measuring leakage from simulation traces
  (:mod:`repro.infotheory.estimators`),
* the mutual-information / MMSE relationship that justifies using the
  adversary's mean square error as the simulation privacy metric
  (:mod:`repro.infotheory.mmse`).
"""

from repro.infotheory.bounds import (
    bits_through_queues_bound,
    cumulative_bits_through_queues_bound,
    entropy_power,
    epi_lower_bound,
)
from repro.infotheory.entropy import (
    erlang_entropy,
    exponential_entropy,
    gaussian_entropy,
    gaussian_mutual_information,
    uniform_entropy,
)
from repro.infotheory.estimators import (
    binned_mutual_information,
    gaussian_mi_estimate,
    ksg_mutual_information,
)
from repro.infotheory.mmse import (
    mmse_lower_bound_from_mi,
    mse_of_estimator,
)

__all__ = [
    "exponential_entropy",
    "uniform_entropy",
    "gaussian_entropy",
    "erlang_entropy",
    "gaussian_mutual_information",
    "entropy_power",
    "epi_lower_bound",
    "bits_through_queues_bound",
    "cumulative_bits_through_queues_bound",
    "binned_mutual_information",
    "ksg_mutual_information",
    "gaussian_mi_estimate",
    "mmse_lower_bound_from_mi",
    "mse_of_estimator",
]
