"""Shell oscillations of the scaled model density around its limit, for tests.

The deviation rho_hat - rho_hat_TF of the n-shell model has one
maximum per shell inside the turning point (acceptance criterion 6).
"""

from __future__ import annotations

import numpy as np

from tfshell.asymptotics import TURNING_POINT, scaled_model_density, tf_limit_density


def shell_oscillation_maxima(
    n_max: int, n_points: int = 4000, boundary_margin: float = 0.05
) -> list[tuple[float, float]]:
    """Local maxima of the scaled-density deviation, innermost first.

    Counts sign changes of the first finite difference on a uniform grid
    over (0, 18^{1/3}).  The window excludes the outer fraction
    ``boundary_margin`` of the radius: just inside the turning point the
    exponential quantum tail always pokes above the semiclassically sharp
    cutoff, producing one spurious bump unrelated to shell structure.
    """
    if n_points < 100:
        raise ValueError("n_points too small to resolve oscillations")
    r = np.linspace(0.0, TURNING_POINT, n_points + 1)[1:-1]
    rho_hat = scaled_model_density(n_max, r)
    dev = rho_hat - tf_limit_density(r)
    sign = np.sign(np.diff(dev))
    peak = np.where((sign[:-1] > 0) & (sign[1:] < 0))[0] + 1
    cut = (1.0 - boundary_margin) * TURNING_POINT
    return [(float(r[i]), float(dev[i])) for i in peak if r[i] < cut]


def oscillation_amplitude(n_max: int, n_points: int = 4000) -> float:
    """Deviation height of the outermost shell oscillation.

    The outermost hump is the meaningful amplitude measure: toward the
    nucleus the scaled deviation grows with Z (the strongly bound region
    never becomes semiclassical), while the outer oscillations shrink.
    """
    maxima = shell_oscillation_maxima(n_max, n_points=n_points)
    if not maxima:
        raise ValueError("no oscillation maxima found")
    return maxima[-1][1]
