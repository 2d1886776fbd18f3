"""Spans around calls into the program's public functions, from outside.

A ``Tracer`` replaces a function where the program looks it up (a module
attribute or a class attribute) with a wrapper that records one span:
name, start, end, parent span and the current phase. Modules that import a
function by name hold their own reference, so each such module is wrapped
separately. ``uninstall`` puts every original back, which lets a run time
the same work with and without tracing.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list = []       # [name, start, end, parent, phase, info]
        self.phase = "setup"
        self.nodes = 0              # autodiff tape records while installed
        self._stack: list[int] = []
        self._patches: list = []    # (owner, attr, original)

    def record(self, name, start, end, info=None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.phase, info])

    def wrap(self, fn, name, info_fn=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                info = info_fn(args, kwargs) if info_fn else None
                tracer.spans[idx] = [name, start, end, parent, tracer.phase, info]
            return result

        return traced

    def patch(self, owner, attr, name, info_fn=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, info_fn))

    def patch_counter(self, owner, attr) -> None:
        """Count calls without a span (used for per-node tape records)."""
        original = getattr(owner, attr)
        tracer = self

        def counted(*args, **kwargs):
            tracer.nodes += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, phase, info in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "phase": phase,
                                    "info": info}) + "\n")


def install_program_spans(tracer: Tracer) -> None:
    """Wrap every public function the benchmark reports on, where it is
    looked up. Import the program before calling this."""
    import os

    from dualebm import (autodiff, cli, config, data_io, energy_model,
                         evaluation, generator_model, training)

    for name in ("dem_loss_gradient", "dgm_loss_gradient", "adagrad_step",
                 "sample_prior"):
        tracer.patch(training, name, f"training.{name}")

    def mode_info(args, kwargs):
        return kwargs.get("mode", args[2] if len(args) > 2 else "infer")

    tracer.patch(generator_model.GeneratorModel, "generate",
                 "generator_model.generate", mode_info)
    tracer.patch(energy_model.EnergyModel, "energy_values",
                 "energy_model.energy_values",
                 lambda args, kwargs: int(len(args[1])))
    tracer.patch(autodiff.Tape, "backward", "autodiff.backward")
    tracer.patch_counter(autodiff.Tape, "_record")

    def checkpoint_bytes(args, kwargs):
        return os.path.getsize(args[0]) if os.path.exists(args[0]) else None

    data_io_fns = {
        "save_checkpoint": checkpoint_bytes, "load_checkpoint": None,
        "save_points_csv": None, "make_dataset": None, "load_mnist_idx": None,
    }
    for module in (data_io, cli, config):
        for name, info_fn in data_io_fns.items():
            if hasattr(module, name):
                tracer.patch(module, name, f"data_io.{name}", info_fn)
    for module in (config, cli):
        tracer.patch(module, "build_models", "config.build_models")

    for module in (evaluation, cli):
        for name in ("mode_coverage", "model_data_divergence",
                     "energy_heatmap", "export_image_grid"):
            if hasattr(module, name):
                tracer.patch(module, name, f"evaluation.{name}")
    for module in (evaluation, energy_model):
        tracer.patch(module, "grid_log_density", "evaluation.grid_log_density")

    # gaussian_kde is a class whose logpdf does most of the work; time the
    # constructor and the returned object's logpdf under one name.
    real_kde = evaluation.gaussian_kde

    def traced_kde(*args, **kwargs):
        kde = tracer.wrap(real_kde, "evaluation.kde")(*args, **kwargs)
        kde.logpdf = tracer.wrap(kde.logpdf, "evaluation.kde")
        return kde

    tracer._patches.append((evaluation, "gaussian_kde", real_kde))
    evaluation.gaussian_kde = traced_kde
