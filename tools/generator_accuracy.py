"""Accuracy of closed_form_generator against a 50-digit reference.

The reference evaluates the resummed nested-cross series

    Y = -T dX + T^2 a(z) (X x dX) - T^3 b(z) X x (X x dX),   z = T|X|,
    a(z) = (1 - cos z)/z^2,   b(z) = (z - sin z)/z^3,

in mpmath at 50 significant digits, with a and b summed from their Taylor
series below z = 1/2.  The 3000 inputs are drawn from rng seed 1: X along a
random axis with |X| = 10^U(-14, 1.5), T = 10^U(-2, 1.5), and |dX| =
U(0.1, 5) along a random axis, except that every fifth dX sits at an angle
10^U(-12, -2) from X.  The script prints the median, 99th percentile and
maximum of |Y - Y_ref| / |Y_ref| and exits 1 when the maximum exceeds 1e-13.

Needs mpmath, which the library itself does not:

    pip install mpmath
    python tools/generator_accuracy.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from su2qfi.generators import closed_form_generator  # noqa: E402

SAMPLES = 3000
MAX_RELATIVE_ERROR = 1e-13


def _random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def inputs(samples: int = SAMPLES, seed: int = 1) -> list[tuple[np.ndarray, np.ndarray, float]]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(samples):
        x_hat = _random_unit(rng)
        x = 10.0 ** rng.uniform(-14.0, 1.5) * x_hat
        t = 10.0 ** rng.uniform(-2.0, 1.5)
        u = _random_unit(rng)
        if i % 5 == 0:  # near colinear
            perp = u - np.dot(u, x_hat) * x_hat
            perp /= np.linalg.norm(perp)
            angle = 10.0 ** rng.uniform(-12.0, -2.0)
            u = np.cos(angle) * x_hat + np.sin(angle) * perp
        out.append((x, rng.uniform(0.1, 5.0) * u, t))
    return out


def _mp_cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def reference(x, d, t) -> np.ndarray:
    """Y at 50 digits, from the float inputs taken as exact."""
    with mp.workdps(50):
        xs = [mp.mpf(float(v)) for v in x]
        ds = [mp.mpf(float(v)) for v in d]
        t = mp.mpf(float(t))
        z = t * mp.sqrt(sum(v * v for v in xs))
        if z < mp.mpf("0.5"):
            a = b = mp.mpf(0)
            term = mp.mpf(1)  # z^(2k)
            for k in range(40):
                a += (-1) ** k * term / mp.factorial(2 * k + 2)
                b += (-1) ** k * term / mp.factorial(2 * k + 3)
                term *= z * z
        else:
            a = (1 - mp.cos(z)) / z**2
            b = (z - mp.sin(z)) / z**3
        xd = _mp_cross(xs, ds)
        xxd = _mp_cross(xs, xd)
        return np.array(
            [float(-t * ds[i] + t**2 * a * xd[i] - t**3 * b * xxd[i]) for i in range(3)]
        )


def main() -> int:
    errors = []
    for x, d, t in inputs():
        ref = reference(x, d, t)
        errors.append(np.linalg.norm(closed_form_generator(x, d, t) - ref) / np.linalg.norm(ref))
    errors = np.array(errors)
    worst = float(errors.max())
    print(
        f"closed_form_generator vs 50-digit reference over {errors.size} inputs: "
        f"median {np.median(errors):.2e}, p99 {np.quantile(errors, 0.99):.2e}, max {worst:.2e}"
    )
    if not worst <= MAX_RELATIVE_ERROR:
        print(f"FAIL: maximum relative error above {MAX_RELATIVE_ERROR:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
