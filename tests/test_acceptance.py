"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Each test prints a single pass line with the worst measured deviation; run
with ``pytest tests/test_acceptance.py -s`` to see them.
"""

import time

import numpy as np
import pytest

from su2qfi import (
    BELL_PHI_PLUS,
    ENTANGLED_WITH_ANCILLA,
    FieldPoint,
    SchemeConfig,
    SeriesDepthError,
    build_report,
    build_total_unitary,
    closed_form_generator,
    density,
    entangled_weak_comm,
    magnetometry_scheme,
    numeric_generator,
    precision_curves,
    qfi_max,
    series_generator,
    su2_element,
)
from su2qfi.cli import main
from su2qfi.oracles import entangled_qfim_fd, sld_oracle, weak_comm_trace_oracle
from su2qfi.qfi import scheme_generators, weak_comm_matrix
from su2qfi.scheme import MERGED, PRODUCT, unitary_derivatives

POINT = FieldPoint(3.0, np.pi / 6, 0.0)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def linear_scheme(x0, grads, total_time, control=np.zeros(3)):
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    return SchemeConfig(
        coefficients=lambda xp: np.asarray(x0, dtype=float) + grads.T @ xp,
        partials=lambda xp: grads,
        n_params=grads.shape[0],
        control=control,
        segment_time=total_time,
        segment_count=1,
    )


def magnetometry_generators(p, total_time, controlled):
    scheme = magnetometry_scheme(p, total_time, 1, control="optimal" if controlled else "none")
    return scheme_generators(scheme, p.as_array())


def report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS  ({detail})")


def test_criterion_1_generator_oracle_equivalence():
    """Closed form, series (tol 1e-14) and finite-difference oracle agree
    over 1000 random samples with |X|, |dX| in [0.1, 5], T in [0, 5]:
    closed-vs-series <= 1e-12 elementwise on the series' convergence domain,
    either-vs-numeric <= 1e-6, in under 10 s."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_cs = worst_cn = worst_sn = 0.0
    converged = 0
    for _ in range(1000):
        x = rng.uniform(0.1, 5.0) * random_unit(rng)
        d = rng.uniform(0.1, 5.0) * random_unit(rng)
        t = rng.uniform(0.0, 5.0)
        closed = su2_element(closed_form_generator(x, d, t))
        if t > 0.0:
            numeric = numeric_generator(linear_scheme(x, d, t), [0.0], 0)
            worst_cn = max(worst_cn, np.abs(closed - numeric).max())
        else:
            numeric = None
        try:
            series = series_generator(x, d, t)
        except SeriesDepthError:
            # documented refusal: T|X| beyond the series domain, closed form rules
            continue
        converged += 1
        worst_cs = max(worst_cs, np.abs(closed - series).max())
        if numeric is not None:
            worst_sn = max(worst_sn, np.abs(series - numeric).max())
    elapsed = time.perf_counter() - start
    assert converged >= 500
    assert worst_cs <= 1e-12
    assert worst_cn <= 1e-6
    assert worst_sn <= 1e-6
    assert elapsed < 10.0
    report(
        1,
        f"closed-vs-series {worst_cs:.3g} <= 1e-12 on {converged} converged samples, "
        f"closed-vs-numeric {worst_cn:.3g} <= 1e-6, series-vs-numeric {worst_sn:.3g} <= 1e-6, "
        f"{elapsed:.2f} s",
    )


def test_criterion_2_qfim_golden_values():
    """No-control QFIM equals diag(4T^2, 4 sin^2 3T, sin^2 3T) and the
    controlled QFIM equals diag(4T^2, 36T^2, 9T^2) at B=3, theta=pi/6, for
    T = 1..10, within 1e-10 closed form and 1e-6 against the entangled-probe
    finite-difference oracle, in under 5 s."""
    start = time.perf_counter()
    worst_closed = worst_fd = 0.0
    for t_int in range(1, 11):
        total_time = float(t_int)
        golden_nc = np.diag(
            [4 * total_time**2, 4 * np.sin(3 * total_time) ** 2, np.sin(3 * total_time) ** 2]
        )
        golden_c = np.diag([4 * total_time**2, 36 * total_time**2, 9 * total_time**2])
        scheme_nc = magnetometry_scheme(POINT, 1.0, t_int)
        scheme_c = magnetometry_scheme(POINT, 1.0, t_int, control="optimal")
        for scheme, golden in ((scheme_nc, golden_nc), (scheme_c, golden_c)):
            qfim = build_report(scheme, POINT.as_array(), ENTANGLED_WITH_ANCILLA).qfim
            worst_closed = max(worst_closed, np.abs(qfim - golden).max())
        worst_fd = max(
            worst_fd, np.abs(entangled_qfim_fd(scheme_nc, POINT.as_array()) - golden_nc).max()
        )
        worst_fd = max(
            worst_fd, np.abs(entangled_qfim_fd(scheme_c, POINT.as_array()) - golden_c).max()
        )
    elapsed = time.perf_counter() - start
    assert worst_closed <= 1e-10
    assert worst_fd <= 1e-6
    assert elapsed < 5.0
    report(
        2,
        f"closed-form dev {worst_closed:.3g} <= 1e-10, fd-oracle dev {worst_fd:.3g} <= 1e-6, "
        f"{elapsed:.2f} s",
    )


def test_criterion_3_bound_and_limit():
    """0 <= max QFI <= T^2 |dX|^2 over 1000 random inputs; the ceiling is
    attained within 1e-9 whenever sin(alpha) <= 1e-6; the controlled maximum
    at |S| = 1e-8 is within 1e-12 of the ceiling."""
    rng = np.random.default_rng(13)
    worst_bound = worst_colinear = worst_limit = 0.0
    for _ in range(1000):
        x = rng.uniform(0.1, 5.0) * random_unit(rng)
        nd = rng.uniform(0.1, 5.0)
        d = nd * random_unit(rng)
        t = rng.uniform(0.0, 5.0)
        value = qfi_max(x, d, t)
        ceiling = t**2 * nd**2
        assert -1e-12 <= value <= ceiling + 1e-12
        worst_bound = max(worst_bound, value - ceiling)

        # constructed near-colinear geometry: sin(alpha) <= 1e-6
        u = x / np.linalg.norm(x)
        perp = np.cross(u, random_unit(rng))
        perp /= np.linalg.norm(perp)
        sin_a = rng.uniform(0.0, 1e-6)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        d_colinear = nd * (sign * np.sqrt(1 - sin_a**2) * u + sin_a * perp)
        gap = abs(qfi_max(x, d_colinear, t) - t**2 * nd**2)
        worst_colinear = max(worst_colinear, gap)

        s = 1e-8 * random_unit(rng)
        limit_gap = abs(qfi_max(s, d, t) - ceiling)
        worst_limit = max(worst_limit, limit_gap)
    assert worst_colinear <= 1e-9
    assert worst_limit <= 1e-12
    report(
        3,
        f"bound overshoot {max(worst_bound, 0):.3g} <= 1e-12, near-colinear ceiling gap "
        f"{worst_colinear:.3g} <= 1e-9, |S|=1e-8 limit gap {worst_limit:.3g} <= 1e-12",
    )


def test_criterion_4_gap_landscape(tmp_path, capsys):
    """The sweep CSV at t=1, |X|=2, |dX|=1 is symmetric about pi/2 (1e-12),
    zero at the ends, maximal at pi/2, equals 100 - sin^2(10) there for
    N = 10 (1e-10), and is nondecreasing in N at fixed alpha."""
    out = tmp_path / "sweep.csv"
    assert main(["--out", str(out), "sweep-alpha"]) == 0
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").strip().split("\n")[1:]
    table = {}
    for line in lines:
        cells = line.split(",")
        table.setdefault(int(cells[0]), []).append((float(cells[1]), float(cells[4])))
    worst_asym = 0.0
    for n, rows in table.items():
        gaps = [g for _, g in rows]
        alphas = [a for a, _ in rows]
        m = len(gaps)
        worst_asym = max(abs(gaps[k] - gaps[m - 1 - k]) for k in range(m))
        assert gaps[0] == 0.0 and abs(gaps[-1]) <= 1e-12
        peak = max(range(m), key=gaps.__getitem__)
        assert abs(alphas[peak] - np.pi / 2) < 1e-12
        if n == 10:
            expected = 100.0 - np.sin(10.0) ** 2
            assert abs(gaps[peak] - expected) <= 1e-10
    assert worst_asym <= 1e-12
    for k in range(1, len(table[3]) - 1):
        assert table[3][k][1] <= table[5][k][1] + 1e-12
        assert table[5][k][1] <= table[10][k][1] + 1e-12
    report(4, f"asymmetry {worst_asym:.3g} <= 1e-12, ends zero, peak at pi/2, N-monotone")


def test_criterion_5_weak_commutation():
    """Entangled probe: |Tr[[H_a, H_b] rho]| <= 1e-12 for all three
    magnetometry pairs in both schemes; pure-qubit closed-form residuals
    match the trace oracle within 1e-12 over 100 random draws."""
    worst_entangled = 0.0
    for controlled in (False, True):
        gens = magnetometry_generators(POINT, 4.0, controlled)
        for a in range(3):
            for b in range(a + 1, 3):
                val = abs(entangled_weak_comm(gens[a], gens[b], BELL_PHI_PLUS))
                worst_entangled = max(worst_entangled, val)
    assert worst_entangled <= 1e-12

    rng = np.random.default_rng(17)
    worst_pure = 0.0
    for _ in range(100):
        p = FieldPoint(rng.uniform(0.1, 5.0), rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 2 * np.pi))
        t = rng.uniform(0.1, 5.0)
        r = rng.uniform(0.0, 1.0) * random_unit(rng)
        rho = density(r)
        for controlled in (False, True):
            gens = magnetometry_generators(p, t, controlled)
            closed = 1j * weak_comm_matrix(gens, r)
            for a, b in ((0, 1), (0, 2), (1, 2)):
                value = closed[a, b]
                oracle = weak_comm_trace_oracle(su2_element(gens), rho)[a, b]
                worst_pure = max(worst_pure, abs(value - oracle))
    assert worst_pure <= 1e-12
    report(
        5,
        f"entangled residual {worst_entangled:.3g} <= 1e-12, "
        f"closed-vs-trace {worst_pure:.3g} <= 1e-12",
    )


def test_criterion_6_heisenberg_scaling():
    """Controlled deviations are exactly 1/(6N) and 1/(3N) at B=3,
    theta=pi/6, t=1 (within 1e-12); the uncontrolled colatitude deviation
    never drops below 1/2 through N = 100."""
    table = precision_curves(POINT, 1.0, 100, controlled=True)
    worst_theta = worst_phi = 0.0
    for k in range(len(table.n_segments)):
        n = table.n_segments[k]
        worst_theta = max(worst_theta, abs(table.delta_theta[k] - 1.0 / (6 * n)))
        worst_phi = max(worst_phi, abs(table.delta_phi[k] - 1.0 / (3 * n)))
    assert worst_theta <= 1e-12
    assert worst_phi <= 1e-12
    uncontrolled = precision_curves(POINT, 1.0, 100, controlled=False)
    floor = min(uncontrolled.delta_theta)
    assert floor >= 0.5
    report(
        6,
        f"dtheta gap {worst_theta:.3g}, dphi gap {worst_phi:.3g} <= 1e-12, "
        f"uncontrolled dtheta floor {floor:.4f} >= 0.5",
    )


def test_criterion_7_sld_identity():
    """Tr[[L_a, L_b] rho_x] = -4 Tr[[H_a, H_b] rho_in] within 1e-6 over 100
    random schemes and probes (finite-difference grade)."""
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        scheme = linear_scheme(
            rng.uniform(-2, 2, 3),
            rng.uniform(-2, 2, (d, 3)),
            rng.uniform(0.1, 5.0),
            control=rng.uniform(-2, 2, 3) if rng.random() < 0.5 else np.zeros(3),
        )
        x = rng.uniform(-1, 1, d)
        if rng.random() < 0.5:
            probe = density(rng.uniform(0, 1) * random_unit(rng))
        else:
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            probe = np.outer(psi, psi.conj())
        worst = max(worst, sld_oracle(*unitary_derivatives(scheme, x), probe).residuals.max())
    assert worst <= 1e-6
    report(7, f"max identity residual {worst:.3g} <= 1e-6 over 100 schemes/probes")


def test_criterion_8_trotter_gap_scaling():
    """With the negating control designed 0.1 away from the true point and
    T = 5 fixed, the product-vs-merged operator-norm distance halves (ratio
    in [1.8, 2.2]) as t steps through 0.5, 0.25, 0.125, 0.0625."""
    x = POINT.as_array() + np.array([0.0, 0.1, 0.0])
    distances = []
    for t in (0.5, 0.25, 0.125, 0.0625):
        n = int(round(5.0 / t))
        merged = magnetometry_scheme(POINT, t, n, control="optimal", mode=MERGED)
        product = magnetometry_scheme(POINT, t, n, control="optimal", mode=PRODUCT)
        distances.append(
            np.linalg.norm(build_total_unitary(product, x) - build_total_unitary(merged, x), 2)
        )
    ratios = [distances[i] / distances[i + 1] for i in range(len(distances) - 1)]
    assert all(1.8 <= r <= 2.2 for r in ratios), ratios
    report(8, "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios) + " all in [1.8, 2.2]")


def test_criterion_9_determinism(tmp_path, capsys):
    """verify output is byte-identical across runs at a fixed seed, and the
    sweep CSV is byte-stable."""
    code1 = main(["--seed", "3", "--samples", "30", "verify"])
    out1 = capsys.readouterr().out
    code2 = main(["--seed", "3", "--samples", "30", "verify"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--out", str(a), "sweep-alpha"]) == 0
    assert main(["--out", str(b), "sweep-alpha"]) == 0
    assert a.read_bytes() == b.read_bytes()
    report(9, f"verify summary stable ({len(out1.encode())} bytes), sweep CSV byte-stable")
