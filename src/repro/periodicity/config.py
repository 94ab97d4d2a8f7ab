"""The §5.1 detector's parameters, in a module that loads no numpy.

:class:`DetectorConfig` travels with every run that may detect
periods (the CLI, :class:`repro.stream.service.StreamConfig`, the
snapshot builder) long before, and often without, any flow reaching
the detector.  Keeping it apart from :mod:`repro.periodicity.detector`
lets those callers hold a config without importing numpy; the
detector module re-exports the same class.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DetectorConfig"]


@dataclass(frozen=True)
class DetectorConfig:
    """Detector parameters (§5.1 "Choosing Parameters")."""

    #: Number of random permutations (paper: x = 100; beyond that,
    #: results stop changing).
    permutations: int = 100
    #: Bin width; periods below it are unresolvable under jitter.
    sampling_rate_s: float = 1.0
    #: Smallest admissible period, in bins.
    min_period_bins: int = 2
    #: Require at least this many full cycles of evidence.
    min_cycles: int = 3
    #: Spectral candidates to try lining up with the ACF.
    top_k_frequencies: int = 8
    #: Harmonic multiples of each spectral candidate to consider: a
    #: comb signal's spectral energy concentrates in harmonics, so the
    #: true period is often an integer multiple of the strongest
    #: spectral peak's implied period.
    max_harmonic: int = 8
    #: Relative half-width of the ACF window around each spectral
    #: candidate when lining up the two domains.
    lineup_tolerance: float = 0.15
    #: Among lined-up lags, prefer the *smallest* lag whose ACF value
    #: is within this factor of the best — an ACF comb peaks at every
    #: multiple of the period, and the period is the smallest of them.
    fundamental_slack: float = 0.85
    #: Minimum events for the detector to even try.
    min_events: int = 8
    #: Bound on series length; longer flows are re-binned coarser and
    #: the reported period then refined at full resolution.
    max_bins: int = 8192
    #: RNG seed for the permutation test (fixed ⇒ deterministic runs).
    seed: int = 0
