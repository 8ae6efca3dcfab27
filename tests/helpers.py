"""Shared independent oracles for the test suite. Kept apart from the test
modules so nothing here gets collected twice."""

import numpy as np


def segment_distance(point, a, b):
    """Distance from point to the segment [a, b] (clamped projection)."""
    ab = b - a
    denom = float(np.dot(ab, ab))
    t = 0.0 if denom == 0 else float(np.clip(np.dot(point - a, ab) / denom, 0.0, 1.0))
    return float(np.linalg.norm(point - (a + t * ab)))


def min_segment_distance(point, members):
    """Brute-force SMOTE oracle: closest approach to any member-pair segment."""
    return min(segment_distance(point, members[i], members[j])
               for i in range(len(members)) for j in range(len(members)))


def analytic_bandpass_db(f, low=0.5, high=35.0, order=4):
    """Squared (forward-backward) analog Butterworth band-pass response, dB.

    Independent oracle: the low-pass prototype magnitude under the standard
    band-pass frequency transformation. The digital filter can only attenuate
    *more* than this near Nyquist (bilinear warping compresses the stopband).
    """
    omega = abs(f * f - low * high) / ((high - low) * f)
    return 2.0 * 10.0 * np.log10(1.0 / (1.0 + omega ** (2 * order)))


def random_image(rng=None):
    """A (3, 32, 32) beat image with channels (gasf, mtf, rp) drawn over their
    legal value ranges, or all zeros without an rng."""
    if rng is None:
        return np.zeros((3, 32, 32))
    return np.stack([rng.uniform(-1, 1, (32, 32)), rng.uniform(0, 1, (32, 32)),
                     rng.uniform(0, 1, (32, 32))])
