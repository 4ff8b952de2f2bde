"""Spans around calls into the package's layers, recorded from outside.

``Tracer.install`` replaces module attributes of ``cmvmix`` with timing
wrappers.  A function imported by name into another module (``ecm`` binds
``_component_log_densities``, ``selection`` binds ``fit``) is replaced
wherever the same function object is bound, so every call path is seen.
Spans are aggregated in memory as they close: calls, total time, and self
time, which is a span's length minus the time of the spans directly inside
it.  ``uninstall`` puts the original functions back.
"""

import sys
import time
from collections import defaultdict

# span name -> (module, function) pairs it covers
SPANS = {
    "linalg.distance": [("linalg", "trace_quad_forms")],
    "linalg.scatter": [("linalg", "weighted_row_scatter"), ("linalg", "weighted_col_scatter")],
    "linalg.cholesky": [("linalg", "cholesky")],
    "distributions.logdens": [("distributions", "_component_log_densities"),
                              ("distributions", "mvn_log_densities")],
    "ecm.e_step": [("ecm", "e_step")],
    "ecm.observed_loglik": [("ecm", "observed_loglik")],
    "ecm.cm1": [("ecm", "cm_step_1")],
    "ecm.cm23": [("ecm", "cm_step_2_sigma"), ("ecm", "cm_step_3_psi")],
    "ecm.cm4": [("ecm", "cm_step_4_eta")],
    "ecm.chain": [("ecm", "_run_chain")],
    "ecm.fit": [("ecm", "fit")],
    "selection.sweep": [("selection", "sweep")],
    "metrics": [("metrics", "adjusted_rand_index"), ("metrics", "misclassification_rate"),
                ("metrics", "outlier_report")],
    "dataio.write": [("dataio", "write_dataset"), ("dataio", "write_fit")],
    "dataio.read": [("dataio", "read_dataset"), ("dataio", "read_fit")],
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.distance_flops = 0
        self.cell_fits = 0           # ecm.fit calls made inside selection.sweep
        self.cell_fails = 0
        self.chains = []             # (kind, g, outcome, final loglik or None)
        self.chain_hooked = False
        self._stack = []             # [name, child time] of each open span
        self._saved = []

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._observe(name, args, None, exc)
                raise
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
            self._observe(name, args, out, None)
            return out

        return wrapper

    def _observe(self, name, args, out, exc):
        """Counts taken at a span boundary from its arguments and result."""
        if name == "linalg.distance" and exc is None:
            xs = args[0]
            r, p = xs.shape[-2:]
            # per r x p unit: the difference, two triangular solves (r*r*p and
            # p*p*r) and the squared Frobenius norm
            self.distance_flops += xs.size * (r + p + 3)
        elif name == "ecm.fit" and any(f[0] == "selection.sweep" for f in self._stack):
            self.cell_fits += 1
            self.cell_fails += exc is not None
        elif name == "ecm.chain" and self.chain_hooked:
            try:
                self.chains.append(self._chain_record(args, out, exc))
            except (IndexError, AttributeError, TypeError, ValueError):
                # the chain entry point no longer has the shape read here
                self.chain_hooked = False

    @staticmethod
    def _chain_record(args, out, exc):
        """(kind, G, outcome, final loglik) of one _run_chain(data, kind,
        config, ...) call, which returns (model, resp, trace, converged,
        iterations) or raises."""
        kind, g = getattr(args[1], "value", args[1]), int(args[2].g)
        if exc is None:
            return kind, g, ("converged" if out[3] else "max_iter"), float(out[2][-1])
        outcome = {"DegenerateCluster": "degenerate",
                   "NotPositiveDefinite": "not_pd"}.get(type(exc).__name__, "error")
        return kind, g, outcome, None

    def install(self, package):
        """Wrap every function named in SPANS wherever the package binds it."""
        originals = {}
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                mod = getattr(package, mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                originals[id(fn)] = self._span(name, fn)
                if name == "ecm.chain":
                    self.chain_hooked = True
        prefix = package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def ledger(self):
        """Start outcomes per (kind, G) cell, or None when the chain entry
        point was not there to wrap or fits ran without passing through it."""
        if not self.chain_hooked or (self.calls["ecm.fit"] and not self.chains):
            return None
        cells = {}
        for kind, g, outcome, ll in self.chains:
            cell = cells.setdefault(f"{kind}:G={g}", {
                "converged": 0, "max_iter": 0, "degenerate": 0, "not_pd": 0, "error": 0,
                "final_logliks": []})
            cell[outcome] += 1
            if ll is not None:
                cell["final_logliks"].append(ll)
        for cell in cells.values():
            cell["final_logliks"] = distinct(cell["final_logliks"])
        return cells


def distinct(values, rtol=1e-6):
    """Values from highest to lowest, each run of near-equal neighbours
    (relative gap below rtol) kept as its highest member.

    Converged chains stop within the relative tolerance of the fit, so
    chains that reached the same optimum differ in the last digits.
    """
    out = []
    for v in sorted(values, reverse=True):
        if not out or out[-1] - v > rtol * abs(out[-1]):
            out.append(v)
    return out
