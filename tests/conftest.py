"""The tests' oracle: ``perfbench/refs.py``, the benchmark's independent
reference, written from the paper's formulas with numpy alone.

Test modules take ``refs`` from here, ``from conftest import refs``, so they
find it whether they run alone or with the whole suite.
"""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import refs  # noqa: E402


def oracle_classical_risk(theta, alpha, tau, t, sigma):
    """R(theta) = E[(delta(d) - theta)^2], d ~ N(theta, sigma^2), from refs.

    The outer expectation is a trapezoid over |d - theta| <= 10 sigma (401
    points) of ``refs.posterior_mean``; no code of the rule or of the risk
    module is involved.
    """
    d = np.linspace(theta - 10.0 * sigma, theta + 10.0 * sigma, 401)
    delta = refs.posterior_mean(d, alpha, sigma, tau, t)
    weight = np.exp(-0.5 * ((d - theta) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    return float(np.trapezoid((delta - theta) ** 2 * weight, d))
