"""Spans around calls into shapesphere's layers, recorded from outside.

Each traced function is replaced, in every loaded shapesphere module whose
namespace holds it, by a wrapper that records a span, so calls resolve to
the wrapper however the calling module looks the name up (for example
``shapesphere.spatial.shape_curve``).  A span's self time is its duration
minus the time covered by its direct child spans.  Spans are kept in memory.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs traced as spans; the span is named "module.function"
TRACED = (
    ("trajectory", "parse"),
    ("trajectory", "serialize"),
    ("trajectory", "finite_difference_velocities"),
    ("trajectory", "generate"),
    ("trajectory", "embed_planar"),
    ("trajectory", "apply_rotation_profile"),
    ("shape_core", "jacobi_series"),
    ("shape_core", "shape_series"),
    ("shape_core", "atlas"),
    ("shape_core", "euler_collinear_point"),
    ("angles", "unwrap_held"),
    ("planar", "planar_series"),
    ("planar", "shape_curve"),
    ("planar", "oracle_rotation"),
    ("planar", "reconstruct_q1"),
    ("planar", "reconstruct_Z1"),
    ("planar", "zero_J_lift"),
    ("spatial", "normal_track"),
    ("spatial", "bad_set_measure"),
    ("spatial", "reconstruct_spatial"),
    ("spatial", "sigma_tensor"),
    ("spatial", "F_of_J"),
    ("verify", "run_suite"),
    ("verify", "shape_invariant_deviation"),
    ("verify", "atlas_checks"),
    ("verify", "lift_checks"),
    ("verify", "spin_invariance_deviation"),
    ("verify", "planar_motion_cases"),
    ("verify", "spatial_motion_cases"),
    ("verify", "negative_control_reports"),
    ("verify", "antipodal_crossing_reports"),
)

CONSTRUCTIONS = "trajectory.Trajectory.constructions"


class Tracer:
    """In-memory span and counter store.

    Every span and count is tagged with the operation that was current when
    it was recorded (``self.op``), so self times can be summed per operation.
    """

    def __init__(self):
        self.op = -1
        self.spans = []  # (name, op, self seconds)
        self.counts = []  # (name, op)
        self._child_s = []  # seconds covered by the direct children of each open span

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child_s = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += duration
                self.spans.append((name, self.op, duration - child_s))

        return traced

    def count(self, name):
        self.counts.append((name, self.op))

    def add_child_trace(self, doc, op):
        """Merge the spans a traced child process wrote, under operation op."""
        self.spans.extend((name, op, self_s) for name, self_s in doc["spans"])
        self.counts.extend((name, op) for name in doc["counts"])

    def child_doc(self) -> dict:
        return {
            "spans": [(name, self_s) for name, _, self_s in self.spans],
            "counts": [name for name, _ in self.counts],
        }


def install(tracer: Tracer):
    """Route the traced functions of the loaded shapesphere modules through tracer."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "shapesphere" or name.startswith("shapesphere.")
    ]
    for module_name, attr in TRACED:
        home = importlib.import_module(f"shapesphere.{module_name}")
        original = getattr(home, attr)
        traced = tracer.wrap(f"{module_name}.{attr}", original)
        for module in modules:
            if module.__dict__.get(attr) is original:
                setattr(module, attr, traced)

    trajectory_cls = importlib.import_module("shapesphere.trajectory").Trajectory
    from_samples = trajectory_cls.__dict__["from_samples"].__func__
    trajectory_cls.from_samples = classmethod(tracer.wrap("trajectory.from_samples", from_samples))
    post_init = trajectory_cls.__post_init__

    def counted_post_init(self):
        tracer.count(CONSTRUCTIONS)
        post_init(self)

    trajectory_cls.__post_init__ = counted_post_init
