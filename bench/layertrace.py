"""Outside-in layer trace of the majorant package.

The tracer wraps named package functions at run time, from the benchmark's
own files; nothing under ``src/`` is edited.  A function bound into several
modules by ``from ... import`` is one object under several names, so every
binding found in a ``majorant`` module is replaced by the same wrapper.

Each wrapped call adds to an exact call count and to a self time (its
duration minus the time spent in wrapped calls it made).  Node-level and
bound-level functions run tens of thousands of times per proof, so they are
aggregated only; coarser calls also leave a span record (id, parent id, op
index, name, start, end) kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs traced, grouped by layer from the bottom up.
LAYER_FUNCTIONS = (
    ("trigpoly", "eval_G"),
    ("trigpoly", "eval_G_derivative"),
    ("trigpoly", "variation_bound_power"),
    ("spectral", "torus_integral_upper"),
    ("envelope", "envelope_max"),
    ("integrand", "eval_H"),
    ("integrand", "eval_H_second"),
    ("integrand", "h4_sup_bound"),
    ("integrand", "h4_term_bounds"),
    ("quadrature", "midpoint4_integrate"),
    ("quadrature", "refined_error_bound"),
    ("quadrature", "q_star"),
    ("quadrature", "q_plain"),
    ("quadrature", "integrate_H"),
    ("quadrature", "gap_derivative"),
    ("certify", "build_certificate"),
    ("certify", "remainder_bound"),
    ("certify", "eval_cert_poly"),
    ("certify", "check_sign_chain"),
    ("certify", "check_sign_variation"),
    ("pipeline", "prove_k5"),
    ("pipeline", "emit_report"),
    ("pipeline", "reproduce_table"),
)

# Called hundreds to tens of thousands of times per op: counted, never spanned.
AGGREGATE_ONLY = frozenset({
    ("trigpoly", "eval_G"),
    ("trigpoly", "eval_G_derivative"),
    ("trigpoly", "variation_bound_power"),
    ("spectral", "torus_integral_upper"),
    ("envelope", "envelope_max"),
    ("integrand", "eval_H"),
    ("integrand", "eval_H_second"),
    ("quadrature", "q_star"),
    ("quadrature", "q_plain"),
    ("certify", "eval_cert_poly"),
})

# Sign checks: the tracer also counts how many return a certified verdict.
SIGN_CHECKS = frozenset({("certify", "check_sign_chain"), ("certify", "check_sign_variation")})

PACKAGE = "majorant"
MAX_SPANS = 50_000


def metric_key(key: tuple[str, str]) -> str:
    return f"{key[0]}.{key[1]}"


class Tracer:
    """Call counts, self times and spans for LAYER_FUNCTIONS of the majorant package."""

    def __init__(self):
        self.stats = {key: [0, 0.0, 0] for key in LAYER_FUNCTIONS}  # calls, self s, certified
        self.missing = []
        self.spans = []
        self.dropped_spans = 0
        self.op = -1
        self.origin = time.perf_counter()
        self._next_span = 0
        self._child = [0.0]  # per open call: time spent in wrapped callees
        self._parents = [None]  # open span ids; None at the top
        self._bindings = []  # (namespace, name, original, wrapper)
        self._installed = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under every name it has in the package."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for key in LAYER_FUNCTIONS:
            home = sys.modules.get(f"{PACKAGE}.{key[0]}")
            original = getattr(home, key[1], None) if home is not None else None
            if not callable(original):
                self.missing.append(metric_key(key))
                continue
            wrapper = self._wrap(key, original)
            for module in modules:
                namespace = vars(module)
                for name, value in list(namespace.items()):
                    if value is original:
                        self._bindings.append((namespace, name, original, wrapper))
        self.resume()

    def pause(self) -> None:
        """Restore the original functions (checks run between ops are not traced)."""
        if self._installed:
            for namespace, name, original, _ in self._bindings:
                namespace[name] = original
            self._installed = False

    def resume(self) -> None:
        if not self._installed:
            for namespace, name, _, wrapper in self._bindings:
                namespace[name] = wrapper
            self._installed = True

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, key, fn):
        stat = self.stats[key]
        child = self._child
        clock = time.perf_counter

        if key in AGGREGATE_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = child.pop()
                    child[-1] += dt
                    stat[0] += 1
                    stat[1] += dt - inner

            return counted

        parents = self._parents
        name = metric_key(key)
        is_sign_check = key in SIGN_CHECKS

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            parent = parents[-1]
            parents.append(span_id)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                parents.pop()
                stat[0] += 1
                stat[1] += dt - inner
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, self.op, name, t0, t1))
                else:
                    self.dropped_spans += 1
            if is_sign_check and result.certified:
                stat[2] += 1
            return result

        return spanned

    # -- results -----------------------------------------------------------

    def snapshot_calls(self) -> dict:
        return {metric_key(key): stat[0] for key, stat in self.stats.items()}

    def spans_as_dicts(self) -> list:
        return [
            {"id": sid, "parent": parent, "op": op, "name": name,
             "start_s": t0 - self.origin, "end_s": t1 - self.origin}
            for sid, parent, op, name, t0, t1 in self.spans
        ]
