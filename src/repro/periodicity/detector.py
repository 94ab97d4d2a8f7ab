"""The §5.1 period detector.

Implements the paper's four-step extension of Vlachos et al. [29]:

1. compute the autocorrelation and Fourier periodogram of the flow;
2. randomly permute the flow ``x`` times, recording each
   permutation's maximum autocorrelation peak and maximum spectral
   power;
3. take the ``(x-1)``-th largest permuted maxima as thresholds
   (with x=100 this is the strictest-but-one order statistic — a
   ~99th-percentile noise bar);
4. discard insignificant peaks and *line up* the two domains: a
   period is reported only where a strong spectral peak and a strong
   autocorrelation hill agree, and the reported period is read off
   the ACF hill (better resolution at long periods).

The detector returns the single most significant period or None —
the paper explicitly assumes one period per flow and leaves
multi-period analysis to future work.

Permutations shuffle the *binned count series*, which preserves the
marginal rate while destroying all temporal structure; this is the
null model both domains are thresholded against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .autocorr import acf_local_peak, acf_peak, autocorrelation, bin_series
from .config import DetectorConfig
from .spectrum import dominant_frequencies, frequency_to_period_bins, periodogram

__all__ = ["DetectorConfig", "DetectedPeriod", "PeriodDetector"]


@dataclass(frozen=True)
class DetectedPeriod:
    """A significant period found in one flow."""

    period_s: float
    acf_value: float
    spectral_power: float
    acf_threshold: float
    power_threshold: float

    def matches(self, other: "DetectedPeriod", tolerance: float = 0.10) -> bool:
        """Whether two detections describe the same period.

        Relative tolerance, floored at one sampling bin — two flows
        polled from the same timer can disagree by a bin after
        jitter.
        """
        if other is None:
            return False
        big = max(self.period_s, other.period_s)
        allowed = max(tolerance * big, 1.0)
        return abs(self.period_s - other.period_s) <= allowed


class PeriodDetector:
    """Runs the permutation-thresholded two-domain detection."""

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config or DetectorConfig()

    # -- public API ---------------------------------------------------------

    def detect(self, timestamps: np.ndarray) -> Optional[DetectedPeriod]:
        """Detect the most significant period in an event-time array.

        Returns None when the flow shows no period that clears both
        permutation thresholds and the cross-domain line-up.

        Flows spanning more than ``max_bins`` sampling intervals are
        handled in two attempts: first at full resolution on the
        densest ``max_bins``-second crop of the flow (short timer
        periods live inside duty windows and survive cropping), then —
        if the crop shows nothing — at a coarser bin width over the
        whole span (long infrastructure periods need the full extent),
        with the detected period refined back to full resolution from
        the raw inter-arrival structure.
        """
        config = self.config
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if timestamps.size < config.min_events:
            return None
        span = float(timestamps[-1] - timestamps[0])
        if span / config.sampling_rate_s <= config.max_bins:
            return self._detect_at(timestamps, config.sampling_rate_s)

        fine_result: Optional[DetectedPeriod] = None
        cropped = self._densest_window(timestamps)
        if cropped.size >= config.min_events:
            fine_result = self._detect_at(cropped, config.sampling_rate_s)

        coarse_rate = span / config.max_bins
        coarse_result = self._detect_at(timestamps, coarse_rate)
        if coarse_result is not None:
            refined = self._refine_period(
                timestamps, coarse_result.period_s, coarse_rate
            )
            coarse_result = DetectedPeriod(
                period_s=refined,
                acf_value=coarse_result.acf_value,
                spectral_power=coarse_result.spectral_power,
                acf_threshold=coarse_result.acf_threshold,
                power_threshold=coarse_result.power_threshold,
            )

        # Both passes can succeed with different answers (short timer
        # periods favor the fine crop; long infrastructure periods
        # need the full span).  The stronger autocorrelation evidence
        # wins.
        if fine_result is None:
            return coarse_result
        if coarse_result is None:
            return fine_result
        if coarse_result.acf_value > fine_result.acf_value:
            return coarse_result
        return fine_result

    def _densest_window(self, timestamps: np.ndarray) -> np.ndarray:
        """The busiest ``max_bins``-second contiguous slice of a flow."""
        window = self.config.max_bins * self.config.sampling_rate_s
        ends = np.searchsorted(timestamps, timestamps + window, side="right")
        counts = ends - np.arange(timestamps.size)
        start = int(np.argmax(counts))
        return timestamps[start : ends[start]]

    def _detect_at(
        self, timestamps: np.ndarray, rate: float
    ) -> Optional[DetectedPeriod]:
        """One detection pass at a fixed bin width."""
        config = self.config
        series = bin_series(timestamps, rate)
        n = series.size
        max_lag = n // max(config.min_cycles, 1)
        if n < 2 * config.min_period_bins or max_lag < config.min_period_bins:
            return None

        acf = autocorrelation(series)
        best_lag, best_acf = acf_peak(acf, config.min_period_bins, max_lag)
        freqs, power = periodogram(series)
        candidates = dominant_frequencies(
            freqs,
            power,
            top_k=config.top_k_frequencies,
            min_period_bins=config.min_period_bins,
            max_period_bins=max_lag,
        )
        if best_lag == 0 or not candidates:
            return None

        acf_threshold, power_threshold = self._permutation_thresholds(
            series, max_lag
        )
        if best_acf <= acf_threshold:
            return None

        lined_up = self._line_up(
            acf, candidates, power_threshold, acf_threshold, max_lag
        )
        if lined_up is None:
            return None
        lag, acf_value, spectral_power = lined_up
        lag, acf_value = self._descend_to_fundamental(
            acf, lag, acf_value, acf_threshold
        )
        return DetectedPeriod(
            period_s=lag * rate,
            acf_value=acf_value,
            spectral_power=spectral_power,
            acf_threshold=acf_threshold,
            power_threshold=power_threshold,
        )

    def _descend_to_fundamental(
        self,
        acf: np.ndarray,
        lag: int,
        value: float,
        acf_threshold: float,
    ) -> Tuple[int, float]:
        """Replace a harmonic-multiple lag by the true fundamental.

        The ACF of a periodic flow peaks at *every* multiple of the
        period, and bin quantization can make a multiple's peak edge
        out the fundamental's.  A genuine fundamental at ``lag / k``
        must itself clear the permutation threshold — random
        coincidences at a sub-multiple do not — so the smallest
        threshold-clearing sub-multiple is the period.
        """
        config = self.config
        best_lag, best_value = lag, value
        for divisor in range(config.max_harmonic, 1, -1):
            candidate = lag / divisor
            if candidate < config.min_period_bins:
                continue
            tolerance = max(1, int(round(candidate * config.lineup_tolerance)))
            sub_lag, sub_value = acf_local_peak(
                acf, int(round(candidate)), tolerance
            )
            if sub_lag < config.min_period_bins:
                continue
            if sub_value > acf_threshold and sub_value >= 0.5 * value:
                return sub_lag, sub_value
        return best_lag, best_value

    def _refine_period(
        self, timestamps: np.ndarray, estimate_s: float, coarse_rate_s: float
    ) -> float:
        """Sharpen a coarse period estimate to full resolution.

        Collects pairwise event gaps within ±1.5 coarse bins of the
        estimate (via a sorted-array window walk, not an O(n²) sweep),
        histograms them at full resolution, and returns the median of
        the gaps in the modal bin — the mode, not the overall median,
        because merged multi-client flows mix timer gaps with uniform
        cross-client gaps inside the window.
        """
        window = 1.5 * coarse_rate_s
        low, high = estimate_s - window, estimate_s + window
        if low <= 0:
            return estimate_s
        gaps: list = []
        right_lo = np.searchsorted(timestamps, timestamps + low, side="left")
        right_hi = np.searchsorted(timestamps, timestamps + high, side="right")
        for i in range(timestamps.size):
            for j in range(right_lo[i], right_hi[i]):
                gaps.append(timestamps[j] - timestamps[i])
            if len(gaps) > 10_000:
                break
        if not gaps:
            return estimate_s
        values = np.asarray(gaps)
        fine = self.config.sampling_rate_s
        bins = np.floor((values - low) / fine).astype(np.int64)
        modal = np.bincount(bins).argmax()
        in_mode = values[(bins >= modal - 1) & (bins <= modal + 1)]
        return float(np.median(in_mode))

    # -- steps ------------------------------------------------------------------

    def _permutation_thresholds(
        self, series: np.ndarray, max_lag: int
    ) -> Tuple[float, float]:
        """Step 2-3: noise thresholds from permuted series.

        All permutations are evaluated as a batch: one (x, nfft) FFT
        for the spectra and one for the autocorrelations, which keeps
        x=100 affordable on day-long series.
        """
        config = self.config
        x = max(2, config.permutations)
        rng = np.random.default_rng(config.seed)
        n = series.size
        matrix = np.tile(series, (x, 1))
        # Row-wise independent shuffles.
        permuted_columns = rng.random((x, n)).argsort(axis=1)
        matrix = np.take_along_axis(matrix, permuted_columns, axis=1)
        centered = matrix - matrix.mean(axis=1, keepdims=True)

        nfft = 1 << int(np.ceil(np.log2(2 * n)))
        spectra = np.fft.rfft(centered, nfft, axis=1)
        power = (np.abs(spectra) ** 2) / n
        # Admissible band matches the real analysis.
        freqs = np.fft.rfftfreq(nfft, d=1.0)
        band = (freqs > 0) & (freqs <= 1.0 / config.min_period_bins)
        band &= freqs >= 1.0 / max(max_lag, config.min_period_bins)
        max_power = (
            power[:, band].max(axis=1) if np.any(band) else np.zeros(x)
        )

        acf_matrix = np.fft.irfft(spectra * np.conjugate(spectra), nfft, axis=1)[:, :n]
        zero = acf_matrix[:, 0].copy()
        zero[zero <= 0] = 1.0
        acf_matrix /= zero[:, None]
        lag_ceiling = min(max_lag, n - 1)
        window = acf_matrix[:, config.min_period_bins : lag_ceiling + 1]
        max_acf = window.max(axis=1) if window.size else np.zeros(x)

        # (x-1)-th largest = second-largest of x maxima.
        acf_threshold = float(np.sort(max_acf)[-2])
        power_threshold = float(np.sort(max_power)[-2])
        return acf_threshold, power_threshold

    def _line_up(
        self,
        acf: np.ndarray,
        candidates: Sequence[Tuple[float, float]],
        power_threshold: float,
        acf_threshold: float,
        max_lag: int,
    ) -> Optional[Tuple[int, float, float]]:
        """Step 4: cross-validate spectral candidates on the ACF.

        A comb signal spreads its spectral energy over harmonics, so
        each significant frequency is expanded to the periods implied
        by its harmonic multiples before the ACF look-up.  Among all
        lined-up lags, the reported period is the *smallest* lag whose
        ACF value is within ``fundamental_slack`` of the best — the
        ACF of a periodic flow peaks at every multiple of the true
        period and the fundamental is the smallest such peak.

        Returns ``(lag, acf_value, power)`` or None.
        """
        config = self.config
        lined: List[Tuple[int, float, float]] = []
        seen_lags: set = set()
        for frequency, spectral_power in candidates:
            if spectral_power <= power_threshold:
                continue
            base_period = frequency_to_period_bins(frequency)
            for harmonic in range(1, config.max_harmonic + 1):
                period_bins = base_period * harmonic
                if period_bins > max_lag:
                    break
                tolerance = max(
                    1, int(round(period_bins * config.lineup_tolerance))
                )
                lag, value = acf_local_peak(
                    acf, int(round(period_bins)), tolerance
                )
                if lag < config.min_period_bins or lag > max_lag:
                    continue
                if value <= acf_threshold or lag in seen_lags:
                    continue
                seen_lags.add(lag)
                lined.append((lag, value, spectral_power))
        if not lined:
            return None
        best_value = max(value for _, value, _ in lined)
        eligible = [
            entry
            for entry in lined
            if entry[1] >= config.fundamental_slack * best_value
        ]
        return min(eligible, key=lambda entry: entry[0])
