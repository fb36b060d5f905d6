"""Spans around the engine's public functions, installed from outside.

Each wrapper replaces a function at the name its callers look up (a module
attribute or a class attribute), so the engine itself is unchanged.  While
the tracer is active, every call records a span ``[name, start, end,
parent, info]`` in memory; ``info`` is a small tuple taken from the
arguments or the return value (batch size, omega, dimension, ...).  Spans
are written to disk only when the run ends.
"""

import functools
import gzip
import json
import time
from collections import defaultdict

import numpy as np


def _batch(a):
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _points(k):
    shape = np.shape(k)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """Records spans while `active`; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, info=None):
        """Replace owner.attr by a recording wrapper.

        `info(args, kwargs, result)` extracts the span's details; a call that
        raises records ("raised", exception type name) instead.  A missing
        attribute is skipped, so a function the engine no longer has simply
        reports no calls.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            rec = [name, 0.0, 0.0,
                   tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                rec[2] = time.perf_counter()
                rec[4] = ("raised", type(exc).__name__)
                raise
            finally:
                tracer._stack.pop()
            rec[2] = time.perf_counter()
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        setattr(owner, attr, functools.wraps(original)(wrapper))
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap every traced function of the `defect_bands` package."""
        from defect_bands import cli, model, oracle, quadrature, spectrum, \
            symbol

        w = self.wrap
        w(spectrum, "inverse", "symbol.inverse",
          lambda a, k, r: (_batch(a[0]),))
        w(spectrum, "smallest_singular_value", "symbol.svd")
        w(spectrum, "det", "symbol.det")
        w(symbol.OmegaSymbol, "eval", "symbol.eval",
          lambda a, k, r: (_points(a[2] if len(a) > 2 else k["k"]),))
        w(spectrum.Chain, "__init__", "spectrum.chain")
        w(spectrum.Chain, "level_values", "spectrum.level_values",
          lambda a, k, r: (a[0].omega, int(a[1]), int(np.shape(r)[0])))
        w(spectrum, "step_check", "spectrum.step_check",
          lambda a, k, r: (bool(r.detected),))
        w(spectrum, "membership", "spectrum.membership")
        w(spectrum, "exclusion_set", "spectrum.exclusion_set")
        w(spectrum, "bands_grid", "spectrum.bands_grid")
        w(spectrum, "dispersion_branch", "spectrum.dispersion",
          lambda a, k, r: (len(r.samples),
                           sum(1 for s in r.samples if s[2] == "near-band")))
        w(spectrum, "resolvent_apply", "spectrum.resolvent",
          lambda a, k, r: (float(r.residual),))
        w(cli, "full_spectrum", "spectrum.full_spectrum")
        for mod in (model, spectrum, cli):
            w(mod, "validate", "model.validate")
        w(cli, "load_config", "cli.load")
        w(cli, "spec_from_config", "cli.load")
        w(cli, "main", "cli.main")
        w(oracle, "assemble_truncated", "oracle.assemble",
          lambda a, k, r: (int(r.dimension),))
        for attr in ("oracle_eigenvalues", "oracle_eigenpairs"):
            w(oracle, attr, "oracle.eigensolve",
              lambda a, k, r: (int(a[0].dimension),))
        w(oracle, "boundary_mass", "oracle.boundary_mass")
        w(oracle, "periodic_box_check", "oracle.box_check")
        w(quadrature, "bracket", "quadrature.bracket")
        w(quadrature, "adaptive_bracket", "quadrature.adaptive_bracket")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Spans as gzipped JSON lines: name, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def layer_metrics(spans, scan_grid):
    """Per-layer metrics from recorded spans.

    `<layer>.s` is self time: span time minus the time its traced children
    cover.  The dispersion `scan_s`/`polish_s` and `spectrum.probes.s` are
    inclusive.  A `level_values` call made directly by `dispersion_branch`
    counts as scan when its omega is on `scan_grid`, else as polish.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += (end - start) - child_time[idx]
        calls[name] += 1

    def raised(info):
        return info is not None and info[0] == "raised"

    scan_set = set(float(x) for x in scan_grid)
    inv_mats = eval_pts = rows = nonconv = 0
    scan_s = polish_s = probes_s = 0.0
    scan_evals = polish_evals = roots = near_band = 0
    step_calls = step_hits = 0
    residual_max = 0.0
    dim_max = 0
    n3_sum = 0.0
    for name, start, end, parent, info in spans:
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "symbol.inverse" and not raised(info):
            inv_mats += info[0]
        elif name == "symbol.eval" and not raised(info):
            eval_pts += info[0]
        elif name == "spectrum.level_values":
            if raised(info):
                nonconv += info[1] == "NonConvergence"
                continue
            omega, _, n_rows = info
            rows += n_rows
            if parent_name == "spectrum.dispersion":
                if omega in scan_set:
                    scan_evals += 1
                    scan_s += end - start
                else:
                    polish_evals += 1
                    polish_s += end - start
        elif name == "spectrum.dispersion" and not raised(info):
            roots += info[0]
            near_band += info[1]
        elif name == "spectrum.step_check" and not raised(info):
            step_calls += 1
            step_hits += info[0]
        elif name == "spectrum.membership" and \
                parent_name == "spectrum.full_spectrum":
            probes_s += end - start
        elif name == "spectrum.resolvent" and not raised(info):
            residual_max = max(residual_max, info[0])
        elif name == "oracle.assemble" and not raised(info):
            dim_max = max(dim_max, info[0])
        elif name == "oracle.eigensolve" and not raised(info):
            n3_sum += float(info[0]) ** 3

    def m(value, unit):
        return {"value": value, "unit": unit}

    return {
        "symbol.inverse.s": m(self_s["symbol.inverse"], "s"),
        "symbol.inverse.calls": m(calls["symbol.inverse"], "count"),
        "symbol.inverse.matrices": m(inv_mats, "count"),
        "symbol.svd.s": m(self_s["symbol.svd"], "s"),
        "symbol.svd.calls": m(calls["symbol.svd"], "count"),
        "symbol.det.s": m(self_s["symbol.det"], "s"),
        "symbol.eval.s": m(self_s["symbol.eval"], "s"),
        "symbol.eval.points": m(eval_pts, "count"),
        "spectrum.level_values.s": m(self_s["spectrum.level_values"], "s"),
        "spectrum.level_values.calls": m(calls["spectrum.level_values"],
                                         "count"),
        "spectrum.level_values.rows": m(rows, "count"),
        "spectrum.level_values.nonconv": m(nonconv, "count"),
        "spectrum.chain.built": m(calls["spectrum.chain"], "count"),
        "spectrum.dispersion.scan_s": m(scan_s, "s"),
        "spectrum.dispersion.scan_evals": m(scan_evals, "count"),
        "spectrum.dispersion.polish_s": m(polish_s, "s"),
        "spectrum.dispersion.polish_evals": m(polish_evals, "count"),
        "spectrum.dispersion.roots": m(roots, "count"),
        "spectrum.dispersion.near_band": m(near_band, "count"),
        "spectrum.dispersion.evals_per_root": m(
            polish_evals / roots if roots else 0.0, "count"),
        "spectrum.step_check.s": m(self_s["spectrum.step_check"], "s"),
        "spectrum.step_check.calls": m(step_calls, "count"),
        "spectrum.step_check.detect_frac": m(
            step_hits / step_calls if step_calls else 0.0, "fraction"),
        "spectrum.membership.s": m(self_s["spectrum.membership"], "s"),
        "spectrum.membership.calls": m(calls["spectrum.membership"], "count"),
        "spectrum.probes.s": m(probes_s, "s"),
        "spectrum.exclusion_set.s": m(self_s["spectrum.exclusion_set"], "s"),
        "spectrum.bands_grid.s": m(self_s["spectrum.bands_grid"], "s"),
        "spectrum.resolvent.s": m(self_s["spectrum.resolvent"], "s"),
        "spectrum.resolvent.calls": m(calls["spectrum.resolvent"], "count"),
        "spectrum.resolvent.residual_max": m(residual_max, "ratio"),
        "oracle.assemble.s": m(self_s["oracle.assemble"], "s"),
        "oracle.assemble.dim_max": m(dim_max, "count"),
        "oracle.eigensolve.s": m(self_s["oracle.eigensolve"], "s"),
        "oracle.eigensolve.n3_sum": m(n3_sum, "count"),
        "oracle.boundary_mass.s": m(self_s["oracle.boundary_mass"], "s"),
        "oracle.box_check.s": m(self_s["oracle.box_check"], "s"),
        "cli.load.s": m(self_s["cli.load"], "s"),
        "model.validate.s": m(self_s["model.validate"], "s"),
        "cli.main.self_s": m(self_s["cli.main"], "s"),
        "quadrature.bracket.calls": m(calls["quadrature.bracket"]
                                      + calls["quadrature.adaptive_bracket"],
                                      "count"),
    }
