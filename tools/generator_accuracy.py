"""Accuracy of closed_form_generator against a 50-digit reference.

The reference evaluates the resummed nested-cross series

    Y = -T dX + T^2 a(z) (X x dX) - T^3 b(z) X x (X x dX),   z = T|X|,
    a(z) = (1 - cos z)/z^2,   b(z) = (z - sin z)/z^3,

in mpmath at 50 significant digits, with a and b summed from their Taylor
series below z = 1/2, and the float inputs taken as exact.  Two samples of
3000 inputs each, with |dX| = U(0.1, 5) along a random axis, except that
every fifth dX sits at an angle 10^U(-12, -2) from X:

- the main sample (rng seed 1): X along a random axis with
  |X| = 10^U(-14, 1.5) and T = 10^U(-2, 1.5);
- the extreme-magnitude sample (rng seed 2): |X| = 10^U(-300, 300) along a
  random axis, the phase z = 10^U(-14, 3) and T = z/|X|.  Inputs whose
  reference |Y| lies below the normal doubles are skipped, since rounding Y
  to a subnormal is not the algorithm's error.

Relative errors are |Y - Y_ref| / |Y_ref|, both norms taken after an exact
power-of-two scaling so that their squares neither overflow nor underflow.
The script prints the median, 99th percentile and maximum of each sample and
exits 1 when the main sample's maximum exceeds 1e-13, the extreme sample's
exceeds 1e-14, or the closed form refuses an extreme input (every z^3 there
is finite).

Needs mpmath, which the library itself does not:

    pip install mpmath
    python tools/generator_accuracy.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from su2qfi.generators import closed_form_generator  # noqa: E402

SAMPLES = 3000
MAX_RELATIVE_ERROR = 1e-13
MAX_EXTREME_RELATIVE_ERROR = 1e-14


def _random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _partial(rng, x_hat: np.ndarray, near_colinear: bool) -> np.ndarray:
    u = _random_unit(rng)
    if near_colinear:
        perp = u - np.dot(u, x_hat) * x_hat
        perp /= np.linalg.norm(perp)
        angle = 10.0 ** rng.uniform(-12.0, -2.0)
        u = np.cos(angle) * x_hat + np.sin(angle) * perp
    return rng.uniform(0.1, 5.0) * u


def inputs(samples: int = SAMPLES, seed: int = 1) -> list[tuple[np.ndarray, np.ndarray, float]]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(samples):
        x_hat = _random_unit(rng)
        x = 10.0 ** rng.uniform(-14.0, 1.5) * x_hat
        t = 10.0 ** rng.uniform(-2.0, 1.5)
        out.append((x, _partial(rng, x_hat, i % 5 == 0), t))
    return out


def extreme_inputs(samples: int = SAMPLES, seed: int = 2) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(samples):
        x_hat = _random_unit(rng)
        norm = 10.0 ** rng.uniform(-300.0, 300.0)
        z = 10.0 ** rng.uniform(-14.0, 3.0)
        out.append((norm * x_hat, _partial(rng, x_hat, i % 5 == 0), z / norm))
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


def _relative_error(y: np.ndarray, ref: np.ndarray) -> float:
    """|y - ref| / |ref| after scaling both by the power of two that brings ref near 1."""
    exponent = -math.frexp(np.abs(ref).max())[1]
    y, ref = np.ldexp(y, exponent), np.ldexp(ref, exponent)
    return float(np.linalg.norm(y - ref) / np.linalg.norm(ref))


def _report(name: str, errors: list, limit: float) -> bool:
    errors = np.array(errors)
    worst = float(errors.max())
    print(
        f"closed_form_generator vs 50-digit reference over {errors.size} {name}: "
        f"median {np.median(errors):.2e}, p99 {np.quantile(errors, 0.99):.2e}, max {worst:.2e}"
    )
    if not worst <= limit:
        print(f"FAIL: maximum relative error above {limit:g}")
    return worst <= limit


def main() -> int:
    errors = [
        _relative_error(closed_form_generator(x, d, t), reference(x, d, t)) for x, d, t in inputs()
    ]
    ok = _report("inputs", errors, MAX_RELATIVE_ERROR)
    errors, refused, subnormal = [], 0, 0
    for x, d, t in extreme_inputs():
        ref = reference(x, d, t)
        if math.hypot(*ref) < sys.float_info.min:
            subnormal += 1
            continue
        try:
            errors.append(_relative_error(closed_form_generator(x, d, t), ref))
        except OverflowError:
            refused += 1
    ok &= _report(
        f"extreme-magnitude inputs ({subnormal} with a subnormal |Y| skipped)",
        errors,
        MAX_EXTREME_RELATIVE_ERROR,
    )
    if refused:
        print(f"FAIL: {refused} extreme-magnitude inputs with a finite z^3 refused")
    return 0 if ok and not refused else 1


if __name__ == "__main__":
    sys.exit(main())
