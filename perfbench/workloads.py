"""The benchmark's three workloads: inputs, operations and their checks.

Each workload builds its inputs from the run's seed in ``setup`` and returns
a ``Workload``: the operations of one round, in order.  Every round runs the
same operations, so the share of failed operations is the same in every run.
Operations call the package through module attributes
(``planar.reconstruct_q1``), so the traced run sees every call.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks

from shapesphere import planar, spatial, trajectory
from shapesphere.shape_core import PlanarConfiguration, derive_masses, equilateral_configuration

TRIPLES = ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (2.0, 3.0, 6.0))
SMALL_N = 10_000
LARGE_N = 1_000_000
CLI_N = 100_000
DURATION = 3.0

# Generator seeds of the accuracy panels.  They do not depend on --seed:
# the largest error over seeded random motions swung by 27-55% (quartile
# spread over median) from seed to seed, so an accuracy metric over them
# could not resolve any bound; over a fixed panel it repeats exactly.
PANEL_SEED = 2106_15106

E3 = np.array([0.0, 0.0, 1.0])

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    """One benchmark operation: a timed call and the check of its result.

    kind groups operations for the per-kind medians; samples is the number
    of samples the operation reconstructs or processes (0 for none).
    known_fault names a program fault that makes this operation fail today.
    memprobe, when set, lists the operation's calls as (function, args,
    kwargs) with function named "module.name" in shapesphere, for
    probe_peak_rss_mb.
    """

    name: str
    kind: str
    samples: int
    run: Callable[[], object]
    check: Callable[[object], bool]
    known_fault: Optional[str] = None
    memprobe: Optional[list] = None


@dataclass
class Workload:
    ops: list
    # largest error against the truth, read after the rounds
    max_err: Callable[[], float]
    # kinds of the operations at the smallest input size, for msamples_per_s
    small_kinds: tuple


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _gen_seed(rng) -> int:
    return int(rng.integers(2**31))


def _without_velocities(traj):
    return trajectory.Trajectory(traj.masses, traj.times, traj.positions)


def _masses_tuple(masses):
    return (masses.m1, masses.m2, masses.m3)


def _tilt(rng) -> np.ndarray:
    axis = rng.standard_normal(3)
    return trajectory.rotation_matrices(axis, rng.uniform(0.3, 1.2))[0]


# ---------------------------------------------------------------------------
# planar_batch


def planar_setup(seed: int) -> dict:
    rng = _rng(seed, 1)
    small = []
    for k in range(36):
        masses = derive_masses(*TRIPLES[k % 3])
        motion = trajectory.generate(
            "random_smooth", masses=masses, seed=_gen_seed(rng), duration=DURATION, samples=SMALL_N
        )
        small.append((f"seeded{k}", "seeded", k, motion))
    for k in range(4):
        masses = derive_masses(*TRIPLES[k % 3])
        motion = trajectory.generate(
            "figure1_pinch", masses=masses, duration=float(rng.uniform(0.5, 2.0)), samples=SMALL_N
        )
        small.append((f"pinch{k}", "pinch", k, motion))
    for k in range(24):
        masses = derive_masses(*TRIPLES[k % 3])
        motion = trajectory.generate(
            "random_smooth", masses=masses, seed=PANEL_SEED + k, duration=DURATION, samples=SMALL_N
        )
        small.append((f"panel{k}", "panel", k, motion))
    # every second motion of each group loses its velocities, so that the
    # program differences them
    small = [
        (name, group, _without_velocities(motion) if k % 2 else motion)
        for name, group, k, motion in small
    ]
    large = []
    for k in range(3):
        masses = derive_masses(*TRIPLES[k])
        motion = trajectory.generate(
            "random_smooth", masses=masses, seed=_gen_seed(rng), duration=DURATION, samples=LARGE_N
        )
        large.append((f"large{k}", "large", motion))
    return {"small": small, "large": large}


def planar_workload(inputs: dict) -> Workload:
    errors = {}
    ops = []

    def recon_op(name, group, motion, kind):
        truth_q1 = checks.planar_truth(motion.positions, "q1")
        truth_z1 = checks.planar_truth(motion.positions, "Z1")
        closed = None
        if group == "pinch":
            closed = checks.pinch_closed_form(*_masses_tuple(motion.masses))

        def run():
            return (
                planar.reconstruct_q1(motion, include_oracle=True),
                planar.reconstruct_Z1(motion, include_oracle=True),
            )

        def check(out):
            q1, z1 = out
            errors[name] = max(abs(q1.total - truth_q1), abs(z1.total - truth_z1))
            ok = checks.total_ok(q1.total, truth_q1) and checks.total_ok(z1.total, truth_z1)
            ok = ok and checks.oracle_ok(q1.oracle, truth_q1)
            ok = ok and checks.oracle_ok(z1.oracle, truth_z1)
            if closed is not None:
                ok = ok and checks.total_ok(q1.total, closed)
            return ok

        memprobe = None
        if kind == "large":
            memprobe = [
                (f"planar.{fn}", (motion,), {"include_oracle": True})
                for fn in ("reconstruct_q1", "reconstruct_Z1")
            ]
        return Op(f"{name}/q1+Z1", kind, 2 * motion.n_samples, run, check, memprobe=memprobe)

    def lift_op(name, motion):
        masses = motion.masses
        initial = PlanarConfiguration(*motion.positions[0])
        expected = checks.shape_points(motion.positions, _masses_tuple(masses))

        def run():
            curve = planar.shape_curve(motion)
            return curve, planar.zero_J_lift(curve, initial, masses)

        def check(out):
            curve, lifted = out
            return checks.curve_ok(curve.points, expected) and checks.lift_ok(
                lifted.positions, lifted.velocities, _masses_tuple(masses), expected
            )

        return Op(f"{name}/lift", "lift", motion.n_samples, run, check)

    for name, group, motion in inputs["small"]:
        ops.append(recon_op(name, group, motion, "small"))
    for name, group, motion in inputs["small"]:
        ops.append(lift_op(name, motion))
    for name, group, motion in inputs["large"]:
        ops.append(recon_op(name, group, motion, "large"))

    panel = [name for name, group, _ in inputs["small"] if group == "panel"]
    return Workload(
        ops, max_err=lambda: max(errors[name] for name in panel), small_kinds=("small",)
    )


# ---------------------------------------------------------------------------
# spatial_batch

ANTIPODAL_FAULT = (
    "antipodal_even_grid: spatial.reconstruct_spatial finds a crossing of -e "
    "only when a sample lands within ANTIPODAL_TOL of it"
)


def _collinear_control(masses, rng, n):
    """Rigid spin of a collinear configuration about an axis e that is not
    orthogonal to the line: its bad set has positive measure."""
    line = rng.standard_normal(3)
    line /= np.linalg.norm(line)
    while True:
        e = rng.standard_normal(3)
        e /= np.linalg.norm(e)
        if 0.3 < abs(e @ line) < 0.9:
            break
    offsets = np.array([-1.0, 0.2, 0.9]) + rng.uniform(-0.1, 0.1, 3)
    rate = float(rng.uniform(0.5, 1.0))
    motion = trajectory.generate(
        "rigid_rotation",
        masses=masses,
        config=offsets[:, None] * line[None, :],
        rate=rate,
        duration=2.0,
        samples=n,
        axis=e,
    )
    normal0 = e - (e @ line) * line
    normal0 /= np.linalg.norm(normal0)
    normals = np.einsum("nab,b->na", trajectory.rotation_matrices(e, rate * motion.times), normal0)
    return (
        trajectory.Trajectory(masses, motion.times, motion.positions, motion.velocities, normals),
        e,
    )


def _wobble(base, rng):
    axis = E3 + np.append(0.5 * rng.standard_normal(2), 0.0)
    amp = float(rng.uniform(0.2, 0.5))
    freq = float(rng.uniform(1.0, 2.5))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    return trajectory.apply_rotation_profile(
        trajectory.embed_planar(base),
        axis=axis,
        angle=lambda t: amp * np.sin(freq * t + phase),
        rate=lambda t: amp * freq * np.cos(freq * t + phase),
    )


def spatial_setup(seed: int) -> dict:
    rng = _rng(seed, 2)
    tilt = _tilt(rng)
    panel_tilt = _tilt(np.random.default_rng(PANEL_SEED))
    items = []

    def base(k, gen_seed, n):
        masses = derive_masses(*TRIPLES[k % 3])
        return trajectory.generate(
            "random_smooth", masses=masses, seed=gen_seed, duration=DURATION, samples=n
        )

    for k in range(16):
        motion = trajectory.embed_planar(base(k, _gen_seed(rng), SMALL_N), tilt)
        items.append((f"tilt{k}", "tilt", motion, tilt))
    for k in range(8):
        motion = trajectory.embed_planar(base(k, PANEL_SEED + k, SMALL_N), panel_tilt)
        items.append((f"panel{k}", "panel", motion, panel_tilt))
    for k in range(8):
        items.append((f"wobble{k}", "wobble", _wobble(base(k, _gen_seed(rng), SMALL_N), rng), None))
    for k in range(2):
        motion, e = _collinear_control(derive_masses(*TRIPLES[k + 1]), rng, SMALL_N)
        items.append((f"collinear{k}", "collinear", motion, e))

    # fixed input: a rigid 2 pi turn about x at an even sample count, e = z
    masses = derive_masses(1.0, 1.0, 1.0)
    triangle = np.concatenate(
        [equilateral_configuration(masses).as_array(), np.zeros((3, 1))], axis=1
    )
    antipodal = trajectory.generate(
        "rigid_rotation",
        masses=masses,
        config=triangle,
        rate=np.pi,
        duration=2.0,
        samples=10_000,
        axis=np.array([1.0, 0.0, 0.0]),
    )
    items.append(("antipodal_even_grid", "antipodal", antipodal, E3))

    motion = trajectory.embed_planar(base(1, _gen_seed(rng), LARGE_N), tilt)
    items.append(("large_tilt", "large_tilt", motion, tilt))
    motion = _wobble(base(2, _gen_seed(rng), LARGE_N), rng)
    items.append(("large_wobble", "large_wobble", motion, None))
    return {"items": items}


def spatial_workload(inputs: dict) -> Workload:
    errors = {}
    ops = []
    for name, group, motion, extra in inputs["items"]:
        kind = "large" if group.startswith("large") else "small"
        known_fault = None
        if group in ("tilt", "panel", "large_tilt"):
            tilt = extra
            e = tilt[:, 2]
            truth = checks.plane_truth(motion.positions, tilt[:, 0], tilt[:, 1])

            def check(report, name=name, truth=truth):
                errors[name] = abs(report.total - truth)
                return (
                    checks.total_ok(report.total, truth)
                    and checks.oracle_ok(report.oracle, truth)
                    and not report.pole_crossed
                    and checks.certified_is(report.to_dict(), True)
                )

        elif group in ("wobble", "large_wobble"):
            e = E3

            def check(report):
                return checks.total_ok(report.total, report.oracle) and checks.certified_is(
                    report.to_dict(), True
                )

        elif group == "collinear":
            e = extra

            def check(report):
                return checks.certified_is(report.to_dict(), False)

        else:
            e = extra
            kind = "antipodal"
            known_fault = ANTIPODAL_FAULT

            def check(report):
                # the normal passes through -e, so the total is only
                # meaningful modulo 2 pi and the report must say so
                gap = checks.wrapped_gap(report.total, report.oracle)
                return report.pole_crossed and gap <= checks.TOTAL_TOL

        def run(motion=motion, e=e):
            return spatial.reconstruct_spatial(motion, e=e, include_oracle=True)

        memprobe = None
        if kind == "large":
            memprobe = [
                ("spatial.reconstruct_spatial", (motion,), {"e": e, "include_oracle": True})
            ]
        ops.append(Op(name, kind, motion.n_samples, run, check, known_fault, memprobe))

    panel = [name for name, group, _, _ in inputs["items"] if group == "panel"]
    return Workload(
        ops, max_err=lambda: max(errors[name] for name in panel), small_kinds=("small",)
    )


# ---------------------------------------------------------------------------
# child processes

CHILD_TIMEOUT_S = 120


def run_child(argv, root, workdir, feed=None):
    """Run argv through spawn.py, with src/ on PYTHONPATH and cwd root.

    feed, when given, writes the child's stdin.  Returns the completed
    process and the child's own peak resident set in MB.  On a timeout or
    any other error the whole process group is killed.
    """
    rss_out = os.path.join(workdir, "child-rss")
    if os.path.exists(rss_out):
        os.remove(rss_out)
    cmd = [sys.executable, "-I", "-S", os.path.join(HERE, "spawn.py"), rss_out, *argv]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with subprocess.Popen(
        cmd, env=env, cwd=root, start_new_session=True,
        stdin=subprocess.DEVNULL if feed is None else subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        try:
            if feed is not None:
                feed(proc.stdin)
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    with open(rss_out, encoding="utf-8") as handle:
        peak_mb = float(handle.read())
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err), peak_mb


def probe_peak_rss_mb(root: str, workdir: str, calls: list) -> float:
    """Peak resident set, in MB, of a fresh process that receives the inputs
    of calls through a pipe and runs them (memprobe.py).

    The benchmark process's own peak is set by generating its 1e6-sample
    inputs, not by the operations; this process holds one operation's
    inputs and nothing else.
    """
    proc, peak_mb = run_child(
        [sys.executable, os.path.join(HERE, "memprobe.py")], root, workdir,
        feed=lambda stdin: pickle.dump(calls, stdin, protocol=pickle.HIGHEST_PROTOCOL),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe failed: {proc.stderr.decode()[-500:]}")
    return peak_mb


# ---------------------------------------------------------------------------
# cli_session

CLI_ENTRY = "import sys; from shapesphere.cli import main; sys.exit(main())"


class CliRunner:
    """Starts one shapesphere process at a time, like a user at a shell.

    peak_mb is the largest peak resident set of the command processes.
    """

    def __init__(self, root: str, workdir: str, tracer=None):
        self.root = root
        self.workdir = workdir
        self.tracer = tracer
        self.peak_mb = 0.0

    def run(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            trace_out = os.path.join(self.workdir, "child-trace.json")
            if os.path.exists(trace_out):
                os.remove(trace_out)
            cmd = [sys.executable, os.path.join(HERE, "cli_boot.py"), trace_out, *argv]
        proc, peak_mb = run_child(cmd, self.root, self.workdir)
        self.peak_mb = max(self.peak_mb, peak_mb)
        if self.tracer is not None and os.path.exists(trace_out):
            with open(trace_out, encoding="utf-8") as handle:
                self.tracer.add_child_trace(json.load(handle), self.tracer.op)
        return proc

    def probe(self, args):
        """A bare interpreter run, for the import measurements."""
        proc = subprocess.run(
            [sys.executable, *args], env=dict(os.environ, PYTHONPATH=os.path.join(self.root, "src")),
            cwd=self.root, capture_output=True, timeout=CHILD_TIMEOUT_S, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        return proc


def cli_setup(seed: int, workdir: str) -> dict:
    rng = _rng(seed, 3)
    masses = derive_masses(*TRIPLES[int(rng.integers(3))])
    motion = trajectory.generate(
        "random_smooth", masses=masses, seed=_gen_seed(rng), duration=DURATION, samples=CLI_N
    )
    tilt = _tilt(rng)
    base = trajectory.generate(
        "random_smooth", masses=masses, seed=_gen_seed(rng), duration=DURATION, samples=CLI_N
    )
    tilted = _without_velocities(trajectory.embed_planar(base, tilt))
    paths = {
        "planar": os.path.join(workdir, "planar.csv"),
        "tilted": os.path.join(workdir, "tilted.csv"),
        "initial": os.path.join(workdir, "initial.json"),
        "curve": os.path.join(workdir, "curve.csv"),
        "lifted": os.path.join(workdir, "lifted.csv"),
    }
    texts = {
        "planar": trajectory.serialize(motion, "csv"),
        "tilted": trajectory.serialize(tilted, "csv"),
        "initial": json.dumps(
            {"masses": list(_masses_tuple(masses)), "q": motion.positions[0].tolist()}
        ),
    }
    return {
        "masses": masses, "motion": motion, "tilted": tilted, "tilt": tilt, "paths": paths,
        "texts": texts,
    }


def cli_write_files(inputs: dict):
    """Write the serialized inputs of cli_setup.  Kept apart from the timed
    set-up: a 46 MB write took 0.01 s or 2.6 s depending on the disk's
    write-back state, which says nothing about the program."""
    for key, text in inputs.pop("texts").items():
        with open(inputs["paths"][key], "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _load_csv(path: str, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().strip()
        if first != header:
            raise ValueError(f"{path}: header {first!r}, expected {header!r}")
        return np.loadtxt(handle, delimiter=",", ndmin=2)


def cli_workload(inputs: dict, runner: CliRunner) -> Workload:
    masses = inputs["masses"]
    mtuple = _masses_tuple(masses)
    mass_arg = ",".join(repr(m) for m in mtuple)
    paths = inputs["paths"]
    motion = inputs["motion"]
    tilt = inputs["tilt"]
    truth_q1 = checks.planar_truth(motion.positions, "q1")
    truth_tilted = checks.plane_truth(inputs["tilted"].positions, tilt[:, 0], tilt[:, 1])
    expected = checks.shape_points(motion.positions, mtuple)
    # the axis goes in the --e=x,y,z form: a leading minus sign in a separate
    # argument is taken for an option by the CLI's parser
    axis_arg = "--e=" + ",".join(repr(float(x)) for x in tilt[:, 2])
    state = {"verify_bytes": None, "verify_max_err": None}

    def command(argv):
        return lambda: runner.run(argv)

    def check_reconstruct(proc):
        report = json.loads(proc.stdout)
        return (
            proc.returncode == 0
            and checks.total_ok(report["total"], truth_q1)
            and checks.oracle_ok(report["oracle"], truth_q1)
            and report["pole_crossed"] is False
        )

    def check_spatial(proc):
        report = json.loads(proc.stdout)
        return (
            proc.returncode == 0
            and checks.total_ok(report["total"], truth_tilted)
            and checks.certified_is(report, True)
        )

    def check_project(proc):
        data = _load_csv(paths["curve"], "t,w1,w2,w3,xi_unwound")
        return (
            proc.returncode == 0
            and data.shape == (CLI_N, 5)
            and np.array_equal(data[:, 0], motion.times)
            and checks.curve_ok(data[:, 1:4], expected)
        )

    def check_lift(proc):
        data = _load_csv(paths["lifted"], "t,q1x,q1y,q2x,q2y,q3x,q3y,v1x,v1y,v2x,v2y,v3x,v3y")
        return (
            proc.returncode == 0
            and data.shape == (CLI_N, 13)
            and checks.lift_ok(
                data[:, 1:7].reshape(-1, 3, 2), data[:, 7:13].reshape(-1, 3, 2), mtuple, expected
            )
        )

    def check_verify(proc):
        if state["verify_bytes"] is None:
            state["verify_bytes"] = proc.stdout
        report = json.loads(proc.stdout)
        state["verify_max_err"] = report["summary"]["max_abs_error"]
        return checks.verify_ok(proc.returncode, report) and proc.stdout == state["verify_bytes"]

    ops = [
        Op(
            "reconstruct",
            "reconstruct",
            CLI_N,
            command(["reconstruct", paths["planar"], "--masses", mass_arg, "--with-oracle"]),
            check_reconstruct,
        ),
        Op(
            "reconstruct_spatial",
            "spatial_reconstruct",
            CLI_N,
            command(
                ["reconstruct", paths["tilted"], "--masses", mass_arg, "--target", "spatial",
                 axis_arg, "--with-oracle"]
            ),
            check_spatial,
        ),
        Op(
            "project",
            "project",
            CLI_N,
            command(["project", paths["planar"], "--masses", mass_arg, "--out", paths["curve"]]),
            check_project,
        ),
        Op(
            "lift",
            "lift",
            CLI_N,
            command(
                ["lift", paths["curve"], "--initial", paths["initial"], "--out", paths["lifted"]]
            ),
            check_lift,
        ),
        Op(
            "verify",
            "verify",
            0,
            command(["verify", "--suite", "all", "--n", "10000"]),
            check_verify,
        ),
    ]
    return Workload(
        ops,
        max_err=lambda: state["verify_max_err"],
        small_kinds=("reconstruct", "spatial_reconstruct"),
    )
