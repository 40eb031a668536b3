"""Verification harness: named motions with formula-versus-oracle checks.

Builds deterministic suites of planar and spatial cases, each comparing a
reconstruction against an independently unwound oracle angle (or a closed
form), and assembles them into a machine-checkable report.
"""

from __future__ import annotations

import time

import numpy as np

from .angles import wrap_angle
from .planar import (
    planar_series,
    reconstruct_q1,
    reconstruct_Z1,
    shape_curve,
    zero_J_lift,
    ShapeCurve,
)
from .shape_core import (
    MassTriple,
    PlanarConfiguration,
    atlas,
    configuration_from_fiber,
    derive_masses,
    equilateral_configuration,
    jacobi_series,
    shape_series,
    ShapePoint,
    _cross,
    _jacobi_rows,
    _recenter,
)
from .spatial import _projected_rate, reconstruct_spatial
from .trajectory import (
    Trajectory,
    apply_rotation_profile,
    embed_planar,
    generate,
    rotation_matrices,
    _rodrigues,
)

__all__ = [
    "run_suite",
    "run_planar_suite",
    "run_spatial_suite",
    "planar_motion_cases",
    "spatial_motion_cases",
    "shape_invariant_deviation",
    "atlas_checks",
    "lift_checks",
    "spin_invariance_deviation",
    "negative_control_reports",
    "antipodal_crossing_reports",
    "pinch_expected_angle",
    "meridian_curve",
]

_MASS_TRIPLES = ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (2.0, 3.0, 6.0))


def _case_row(
    name,
    formula,
    oracle,
    tolerance,
    samples,
    *,
    use_mod=False,
    certified=None,
    runtime_ms=None,
    passed=None,
):
    abs_error = float(abs(formula - oracle))
    mod_error = float(abs(wrap_angle(formula - oracle)))
    if passed is None:
        passed = bool((mod_error if use_mod else abs_error) <= tolerance)
    return {
        "name": name,
        "formula_total": float(formula),
        "oracle_total": float(oracle),
        "abs_error": abs_error,
        "mod2pi_error": mod_error,
        "certified": certified,
        "samples": int(samples),
        "runtime_ms": runtime_ms,
        "tolerance": None if tolerance is None else float(tolerance),
        "passed": bool(passed),
        "compared_mod_2pi": bool(use_mod),
    }


def _timed(timing: bool, fn, *args, **kwargs):
    """fn(*args, **kwargs) and its wall time in ms (None unless timing)."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, (time.perf_counter() - start) * 1e3 if timing else None


def pinch_expected_angle(masses: MassTriple) -> float:
    """Closed-form rotation of body 1 under the pinch motion: the atlas
    angle alpha2, with cos(alpha2) = sqrt(m1 m3 / ((m1+m2)(m3+m2)))."""
    return float(atlas(masses).alpha[1])


# ---------------------------------------------------------------------------
# planar suite


def _hierarchical_newtonian(n: int) -> Trajectory:
    """Inner circular pair plus a light outer body on a circumbinary circle."""
    masses = derive_masses(1.0, 0.9, 0.8)
    d1 = 0.9 / 1.9
    d2 = 1.0 / 1.9
    omega_in = np.sqrt(1.9)
    radius = 5.0
    omega_out = np.sqrt(2.7 / radius**3)
    drift = omega_out * radius * (0.8 / 2.7)
    config = np.array([[-d1, 0.0], [d2, 0.0], [0.0, radius]])
    velocities = np.array(
        [
            [drift, -omega_in * d1],
            [drift, omega_in * d2],
            [-omega_out * radius * (1.9 / 2.7), 0.0],
        ]
    )
    return generate(
        "newtonian",
        masses=masses,
        config=config,
        velocities=velocities,
        G=1.0,
        duration=3.0,
        samples=n,
    )


def planar_motion_cases(n: int, seed: int) -> list:
    """Named planar motions exercised against the oracle."""
    m111 = derive_masses(*_MASS_TRIPLES[0])
    m123 = derive_masses(*_MASS_TRIPLES[1])
    equilateral = equilateral_configuration(m111).as_array()
    scalene = np.array([[0.9, 0.1], [-0.4, 0.6], [-0.2, -0.5]])
    smooth_a = generate(
        "random_smooth", masses=m123, seed=1000 * (seed + 1) + 11, duration=3.0, samples=n
    )
    smooth_b = generate(
        "random_smooth", masses=m111, seed=1000 * (seed + 1) + 23, duration=3.0, samples=n
    )
    return [
        (
            "rigid_rotation",
            generate(
                "rigid_rotation",
                masses=m111,
                config=equilateral,
                rate=0.7,
                duration=2.0,
                samples=n,
            ),
        ),
        (
            "homothety",
            generate(
                "homothety",
                masses=m123,
                config=scalene,
                rate=-0.15,
                duration=2.0,
                samples=n,
            ),
        ),
        ("figure1_pinch_m111", generate("figure1_pinch", masses=m111, duration=1.0, samples=n)),
        ("figure1_pinch_m123", generate("figure1_pinch", masses=m123, duration=1.0, samples=n)),
        ("newtonian_triple", _hierarchical_newtonian(n)),
        ("random_smooth_a", smooth_a),
        ("random_smooth_b", smooth_b),
    ]


def shape_invariant_deviation(count: int = 1000, seed: int = 0) -> float:
    """Worst relative violation of the shape-map identities on random data.

    Covers rotation invariance, the collinear-plane reflection rule, the
    sphere identity, and proportionality of w3 to the signed triangle area
    (whose exact constant is 2 mu1 mu2).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for triple in _MASS_TRIPLES:
        masses = derive_masses(*triple)
        q = rng.uniform(-1.5, 1.5, size=(count, 3, 2))
        _recenter(q, masses)
        Z1, Z2 = jacobi_series(q, masses)
        w = shape_series(Z1, Z2)
        scale = np.maximum(w[:, 3] ** 2, 1e-300)
        sphere = np.abs(w[:, 0] ** 2 + w[:, 1] ** 2 + w[:, 2] ** 2 - w[:, 3] ** 2) / scale
        worst = max(worst, float(np.max(sphere)))

        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        spin = np.exp(1j * angles)
        zc = (q[..., 0] + 1j * q[..., 1]) * spin[:, None]
        q_rot = np.stack([zc.real, zc.imag], axis=-1)
        w_rot = shape_series(*jacobi_series(q_rot, masses))
        rotation = np.abs(w_rot - w).max(axis=1) / np.maximum(w[:, 3], 1e-300)
        worst = max(worst, float(np.max(rotation)))

        q_ref = q * np.array([1.0, -1.0])
        w_ref = shape_series(*jacobi_series(q_ref, masses))
        expected = w * np.array([1.0, 1.0, -1.0, 1.0])
        reflection = np.abs(w_ref - expected).max(axis=1) / np.maximum(w[:, 3], 1e-300)
        worst = max(worst, float(np.max(reflection)))

        area = 0.5 * _cross((q[:, 1] - q[:, 0]).T, (q[:, 2] - q[:, 0]).T)
        area_dev = np.abs(w[:, 2] - 2.0 * masses.mu1 * masses.mu2 * area)
        worst = max(worst, float(np.max(area_dev / np.maximum(w[:, 3], 1e-300))))
    return worst


def _between_ccw(start: float, end: float, x: float) -> bool:
    span = (end - start) % (2.0 * np.pi)
    rel = (x - start) % (2.0 * np.pi)
    return 0.0 < rel < span


def atlas_checks(count: int = 100, seed: int = 0) -> tuple[float, bool]:
    """Worst alpha-sum deviation and the combined ordering predicates.

    Checks the equal-mass specials, the counterclockwise equator order
    C1, O2, C3, O1, C2, O3, the alpha monotonicity in the masses, and the
    betweenness rules for the Euler points, over random mass triples.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True

    equal = atlas(derive_masses(1.0, 1.0, 1.0))
    worst = max(worst, float(np.max(np.abs(equal.alpha - np.pi / 3.0))))
    for i in (1, 2, 3):
        gap = np.linalg.norm(equal.points[f"E{i}"] - equal.points[f"O{i}"])
        ok = ok and gap < 1e-9
    ok = ok and np.linalg.norm(equal.points["L1"] - np.array([0.0, 0.0, 0.5])) < 1e-12

    triples = rng.uniform(0.2, 5.0, size=(count, 3))
    for m1, m2, m3 in triples:
        masses = derive_masses(m1, m2, m3)
        marked = atlas(masses)
        worst = max(worst, abs(float(np.sum(marked.alpha)) - np.pi))
        ok = ok and bool(np.all(marked.alpha > 0.0) and np.all(marked.alpha < np.pi / 2.0))

        th = marked.equator_angles
        sequence = ["C1", "O2", "C3", "O1", "C2", "O3"]
        gaps = [
            (th[sequence[(s + 1) % 6]] - th[sequence[s]]) % (2.0 * np.pi) for s in range(6)
        ]
        ok = ok and all(g > 0.0 for g in gaps) and abs(sum(gaps) - 2.0 * np.pi) < 1e-9

        order = np.argsort([m1, m2, m3])
        alphas_sorted = marked.alpha[order]
        ok = ok and bool(np.all(np.diff(alphas_sorted) >= -1e-12))

        # on the equator order above, O_i lies on the arc from C_k to C_j
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            oi, ei = th[f"O{i}"], th[f"E{i}"]
            start, end = th[f"C{k}"], th[f"C{j}"]
            ok = ok and _between_ccw(start, end, ei)
            mj, mk = (m1, m2, m3)[j - 1], (m1, m2, m3)[k - 1]
            rel_e = (ei - start) % (2.0 * np.pi)
            rel_o = (oi - start) % (2.0 * np.pi)
            if abs(mj - mk) > 1e-9 * (mj + mk):
                ok = ok and ((rel_e > rel_o) == (mj > mk))
    return worst, ok


def meridian_curve(
    xi0: float, n: int = 801, lo: float = 0.35, hi: float = 2.6, duration: float = 2.0
) -> ShapeCurve:
    """Curve running along the single meridian of longitude xi0."""
    t = np.linspace(0.0, duration, n)
    s = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * t / duration))
    points = 0.5 * np.stack(
        [-np.cos(s), np.sin(s) * np.cos(xi0), np.sin(s) * np.sin(xi0)], axis=1
    )
    return ShapeCurve(t, points, np.full(n, xi0))


def lift_checks(seed: int = 0, curves: int = 20, samples: int = 1500) -> dict:
    """Zero-momentum lifts over random curves plus the meridian special case.

    Returns the worst |J|/I along the lifts, the worst re-projection
    distance back onto the input curves, and the worst chart-angle drift
    along meridian curves (which must vanish).
    """
    rng = np.random.default_rng(1000 * (seed + 1) + 77)
    max_ratio = 0.0
    max_reproject = 0.0
    for k in range(curves):
        masses = derive_masses(*_MASS_TRIPLES[k % len(_MASS_TRIPLES)])
        source = generate(
            "random_smooth",
            masses=masses,
            seed=int(rng.integers(1 << 31)),
            duration=2.0,
            samples=samples,
        )
        curve = shape_curve(source)
        initial = PlanarConfiguration(*source.positions[0])
        lifted = zero_J_lift(curve, initial, masses)
        _, _, inertia, momentum = planar_series(lifted)
        max_ratio = max(max_ratio, float(np.max(np.abs(momentum) / inertia)))
        reprojected = shape_curve(lifted)
        max_reproject = max(
            max_reproject,
            float(np.max(np.linalg.norm(reprojected.points - curve.points, axis=1))),
        )

    max_meridian = 0.0
    for k in range(3):
        masses = derive_masses(*_MASS_TRIPLES[k])
        xi0 = float(rng.uniform(-np.pi, np.pi))
        curve = meridian_curve(xi0, n=601)
        start = ShapePoint(*curve.points[0], 0.5)
        initial = configuration_from_fiber(start, float(rng.uniform(-np.pi, np.pi)), "xi2", masses)
        lifted = zero_J_lift(curve, initial, masses)
        Z1, Z2 = jacobi_series(lifted.positions, masses)
        for z in (Z1, Z2):
            angles = np.unwrap(np.angle(z))
            max_meridian = max(max_meridian, float(np.max(np.abs(angles - angles[0]))))
    return {
        "momentum_ratio": max_ratio,
        "reprojection": max_reproject,
        "meridian_drift": max_meridian,
    }


def _planar_rows(n: int, seed: int, timing: bool) -> list:
    rows = []

    worst, ms = _timed(timing, shape_invariant_deviation, 1000, seed)
    rows.append(
        _case_row("planar/shape_invariants", worst, 0.0, 1e-12, 3000, runtime_ms=ms)
    )

    (alpha_dev, predicates), ms = _timed(timing, atlas_checks, 100, seed)
    rows.append(
        _case_row("planar/atlas_alpha_sum", alpha_dev, 0.0, 1e-12, 100, runtime_ms=ms)
    )
    rows.append(
        _case_row(
            "planar/atlas_predicates",
            1.0 if predicates else 0.0,
            1.0,
            0.5,
            100,
            passed=predicates,
        )
    )

    reports = {}
    for name, motion in planar_motion_cases(n, seed):
        for target, recon in (("q1", reconstruct_q1), ("Z1", reconstruct_Z1)):
            report, ms = _timed(timing, recon, motion, include_oracle=True)
            reports[target] = report
            rows.append(
                _case_row(
                    f"planar/{name}/{target}",
                    report.total,
                    report.oracle,
                    1e-6,
                    report.samples,
                    use_mod=report.pole_crossed,
                    runtime_ms=ms,
                )
            )
        if name.startswith("figure1_pinch"):
            rows.append(
                _case_row(
                    f"planar/{name}/closed_form",
                    reports["q1"].total,
                    pinch_expected_angle(motion.masses),
                    1e-6,
                    reports["q1"].samples,
                )
            )

    lifts, ms = _timed(timing, lift_checks, seed)
    rows.append(
        _case_row(
            "planar/lift_momentum_ratio",
            lifts["momentum_ratio"],
            0.0,
            1e-8,
            20,
            runtime_ms=ms,
        )
    )
    rows.append(_case_row("planar/lift_reprojection", lifts["reprojection"], 0.0, 1e-7, 20))
    rows.append(_case_row("planar/lift_meridian_drift", lifts["meridian_drift"], 0.0, 1e-8, 3))
    return rows


# ---------------------------------------------------------------------------
# spatial suite


def spatial_motion_cases(n: int, seed: int) -> list:
    """Named triangular-everywhere spatial motions with their reference axes."""
    m111 = derive_masses(*_MASS_TRIPLES[0])
    m123 = derive_masses(*_MASS_TRIPLES[1])
    e3 = np.array([0.0, 0.0, 1.0])

    base_a = generate(
        "random_smooth", masses=m123, seed=1000 * (seed + 1) + 31, duration=3.0, samples=n
    )
    embedded = embed_planar(base_a)

    equilateral = np.concatenate(
        [equilateral_configuration(m111).as_array(), np.zeros((3, 1))], axis=1
    )
    scalene = np.array([[0.8, 0.1, 0.0], [-0.3, 0.55, 0.0], [-0.25, -0.4, 0.0]])
    tilted_a = generate(
        "rigid_rotation",
        masses=m111,
        config=equilateral,
        rate=0.8,
        duration=2.0,
        samples=n,
        axis=np.array([0.3, 0.1, 1.0]),
    )
    tilted_b = generate(
        "rigid_rotation",
        masses=m123,
        config=scalene,
        rate=-0.6,
        duration=2.5,
        samples=n,
        axis=np.array([-0.4, 0.25, 1.0]),
    )

    base_w1 = generate(
        "random_smooth", masses=m111, seed=1000 * (seed + 1) + 41, duration=3.0, samples=n
    )
    wobble_a = apply_rotation_profile(
        embed_planar(base_w1),
        axis=np.array([0.5, 0.0, 1.0]),
        angle=lambda t: 0.5 * np.sin(2.0 * np.pi * t / 3.0),
        rate=lambda t: 0.5 * (2.0 * np.pi / 3.0) * np.cos(2.0 * np.pi * t / 3.0),
    )
    base_w2 = generate(
        "random_smooth", masses=m123, seed=1000 * (seed + 1) + 53, duration=3.0, samples=n
    )
    wobble_b = apply_rotation_profile(
        embed_planar(base_w2),
        axis=np.array([0.0, -0.45, 1.0]),
        angle=lambda t: 0.35 * np.sin(1.3 * t) + 0.2 * np.sin(0.7 * t + 0.4),
        rate=lambda t: 0.35 * 1.3 * np.cos(1.3 * t) + 0.2 * 0.7 * np.cos(0.7 * t + 0.4),
    )

    return [
        ("embedded_random_smooth", embedded, e3, base_a),
        ("tilted_rigid_a", tilted_a, None, None),
        ("tilted_rigid_b", tilted_b, e3, None),
        ("wobble_a", wobble_a, e3, None),
        ("wobble_b", wobble_b, e3, None),
    ]


def spin_invariance_deviation(count: int = 1000, seed: int = 0) -> float:
    """Worst change of F under rotations about e with momentum along e.

    States are random triangular configurations with their normals, tilts
    kept away from the antipodal singularity; the momentum is j e and the
    rotation R is about e, so F must be invariant.
    """
    if count < 1:
        return 0.0
    rng = np.random.default_rng(1000 * (seed + 1) + 5)
    masses = derive_masses(1.0, 1.4, 0.7)
    # planar candidates, kept where the inertia map is well conditioned so
    # its inverse does not amplify roundoff past the invariance tolerance
    accepted = np.empty((0, 3, 3))
    while accepted.shape[0] < count:
        batch = np.zeros((count, 3, 3))
        batch[:, :, :2] = rng.uniform(-1.0, 1.0, size=(count, 3, 2))
        kernel = _jacobi_rows(batch, None, masses)
        keep = kernel.smallest >= 0.05 * 2.0 * kernel.inertia
        accepted = np.concatenate([accepted, batch[keep]])
    states = accepted[:count]
    tilt_axis = rng.standard_normal((count, 3)) + np.array([0.0, 0.0, 2.0])
    tilt_angle = rng.uniform(0.0, 2.0 * np.pi, count)
    e = rng.standard_normal((count, 3))
    j = rng.uniform(-2.0, 2.0, count)
    spin_angle = rng.uniform(0.0, 2.0 * np.pi, count)

    _recenter(states, masses)
    tilt = _rodrigues(tilt_axis / np.linalg.norm(tilt_axis, axis=1, keepdims=True), tilt_angle)
    states = states @ np.swapaxes(tilt, 1, 2)
    axes = e / np.linalg.norm(e, axis=1, keepdims=True)
    momenta = j[:, None] * axes
    spin = _rodrigues(axes, spin_angle)
    spun = states @ np.swapaxes(spin, 1, 2)

    # F of the drawn states (rows [:count]) and of the spun ones, in one
    # batch; each normal is oriented into the e hemisphere, as normal
    # tracking does, and a spun normal keeps the side of the one it spins
    kernel = _jacobi_rows(np.concatenate([states, spun]), None, masses)
    normals = kernel.normal / np.linalg.norm(kernel.normal, axis=0)
    side = np.where(np.einsum("dn,nd->n", normals[:, :count], axes) < 0.0, -1.0, 1.0)
    normals *= np.concatenate([side, side])
    w = kernel.inverse(np.concatenate([momenta, momenta]).T, kernel.inertia)
    rate = _projected_rate(w, normals, np.concatenate([axes, axes]).T)
    return float(np.max(np.abs(rate[count:] - rate[:count])))


def negative_control_reports(n: int = 2001):
    """Collinear spin about e versus about n: same formula inputs at t = 0,
    different true rotations; both runs must come back uncertified."""
    masses = derive_masses(1.0, 1.2, 0.8)
    raw = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.3], [0.0, 0.0, 0.8]])
    e = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    normal = np.array([1.0, 0.0, 0.0])
    sin_tilt = float(e @ normal)
    omega = 0.9
    duration = 2.0

    about_e = generate(
        "rigid_rotation", masses=masses, config=raw, rate=omega, duration=duration, samples=n, axis=e
    )
    normals_e = np.einsum("nab,b->na", rotation_matrices(e, omega * about_e.times), normal)
    about_e = Trajectory(masses, about_e.times, about_e.positions, about_e.velocities, normals_e)

    about_n = generate(
        "rigid_rotation",
        masses=masses,
        config=raw,
        rate=sin_tilt * omega,
        duration=duration,
        samples=n,
        axis=normal,
    )
    normals_n = np.tile(normal, (n, 1))
    about_n = Trajectory(masses, about_n.times, about_n.positions, about_n.velocities, normals_n)

    report_e = reconstruct_spatial(about_e, e=e, include_oracle=True)
    report_n = reconstruct_spatial(about_n, e=e, include_oracle=True)
    return report_e, report_n


def antipodal_crossing_reports(n: int = 10001):
    """A full rigid turn about an in-plane axis drives the normal through -e
    once; the two continuation branches must agree modulo 2 pi."""
    masses = derive_masses(1.0, 1.0, 1.0)
    config = np.concatenate(
        [equilateral_configuration(masses).as_array(), np.zeros((3, 1))], axis=1
    )
    e = np.array([0.0, 0.0, 1.0])
    motion = generate(
        "rigid_rotation",
        masses=masses,
        config=config,
        rate=np.pi,
        duration=2.0,
        samples=n,
        axis=np.array([1.0, 0.0, 0.0]),
    )
    plus = reconstruct_spatial(motion, e=e, antipodal_branch=1, include_oracle=True)
    minus = reconstruct_spatial(motion, e=e, antipodal_branch=-1, include_oracle=True)
    return plus, minus


def _spatial_rows(n: int, seed: int, timing: bool) -> list:
    rows = []
    for name, motion, e, planar_base in spatial_motion_cases(n, seed):
        report, ms = _timed(timing, reconstruct_spatial, motion, e=e, include_oracle=True)
        rows.append(
            _case_row(
                f"spatial/{name}",
                report.total,
                report.oracle,
                1e-5,
                report.samples,
                use_mod=report.pole_crossed,
                certified=report.certified,
                runtime_ms=ms,
            )
        )
        if planar_base is not None:
            planar_report = reconstruct_q1(planar_base, include_oracle=False)
            rows.append(
                _case_row(
                    f"spatial/{name}/matches_planar",
                    report.total,
                    planar_report.total,
                    1e-12,
                    report.samples,
                )
            )

    drift, ms = _timed(timing, spin_invariance_deviation, 1000, seed)
    rows.append(
        _case_row("spatial/rotation_invariance_of_F", drift, 0.0, 1e-10, 1000, runtime_ms=ms)
    )

    report_e, report_n = negative_control_reports()
    flagged = (
        report_e.certified is False
        and report_n.certified is False
        and report_e.bad_set_measure > 0.0
        and report_n.bad_set_measure > 0.0
    )
    rows.append(
        _case_row(
            "spatial/negative_control_flagged",
            report_e.bad_set_measure,
            report_n.bad_set_measure,
            None,
            report_e.samples,
            certified=False,
            passed=flagged,
        )
    )
    rows.append(
        _case_row(
            "spatial/negative_control_formula_agrees",
            report_e.total,
            report_n.total,
            1e-8,
            report_e.samples,
            certified=False,
        )
    )
    rows.append(
        _case_row(
            "spatial/negative_control_oracles_differ",
            report_e.oracle,
            report_n.oracle,
            None,
            report_e.samples,
            certified=False,
            passed=bool(abs(report_e.oracle - report_n.oracle) > 1e-3),
        )
    )

    plus, minus = antipodal_crossing_reports(min(n, 10001))
    rows.append(
        _case_row(
            "spatial/antipodal_branch_invariance",
            plus.total_mod_2pi,
            minus.total_mod_2pi,
            1e-6,
            plus.samples,
            use_mod=True,
        )
    )
    rows.append(
        _case_row(
            "spatial/antipodal_vs_oracle",
            plus.total,
            plus.oracle,
            1e-5,
            plus.samples,
            use_mod=True,
        )
    )
    return rows


def _assemble(suite: str, n: int, seed: int, rows: list) -> dict:
    rows = sorted(rows, key=lambda r: r["name"])
    failures = sum(1 for r in rows if not r["passed"])
    tracked = [
        r["mod2pi_error"] if r["compared_mod_2pi"] else r["abs_error"]
        for r in rows
        if r["tolerance"] is not None
    ]
    return {
        "suite": suite,
        "n": n,
        "seed": seed,
        "cases": rows,
        "summary": {
            "max_abs_error": max(tracked) if tracked else 0.0,
            "failures": failures,
        },
    }


def run_planar_suite(n: int = 10000, seed: int = 0, timing: bool = False) -> dict:
    return _assemble("planar", n, seed, _planar_rows(n, seed, timing))


def run_spatial_suite(n: int = 10000, seed: int = 0, timing: bool = False) -> dict:
    return _assemble("spatial", n, seed, _spatial_rows(n, seed, timing))


def run_suite(suite: str, n: int = 10000, seed: int = 0, timing: bool = False) -> dict:
    """Run the named verification suite and assemble its report."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if suite == "planar":
        return run_planar_suite(n, seed, timing)
    if suite == "spatial":
        return run_spatial_suite(n, seed, timing)
    if suite == "all":
        rows = _planar_rows(n, seed, timing) + _spatial_rows(n, seed, timing)
        return _assemble("all", n, seed, rows)
    raise ValueError(f"unknown suite {suite!r}: expected planar, spatial or all")
