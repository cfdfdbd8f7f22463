"""In-memory span recording around the public functions of each package module.

The spans are recorded from outside the package: `Tracer.install` replaces
every reference to a traced function (module attributes, re-exports made by
`from .x import f`, and functions stored in module-level dicts such as
`estimators._DISPATCH`) with a timing wrapper, and `Tracer.uninstall` puts
the originals back. A function imported under another name (for example
`glm._bisect`) is found by identity, not by name.

Each span is stored as (op, name, start, end, parent, self_s, extra) in a
list, and nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "twophase_ate"

# (module, function) pairs timed in the traced run; the layers are the
# package's modules.
TRACED = (
    ("cli", "main"),
    ("cli", "parse_config_text"),
    ("data_model", "load_csv"),
    ("data_model", "scale_outcome"),
    ("sim", "generate"),
    ("sim", "census_psi"),
    ("sim", "run_study"),
    ("sim", "write_report_csv"),
    ("nuisance", "fit_nuisances"),
    ("nuisance", "fit_pi"),
    ("nuisance", "fit_g_ipcw"),
    ("nuisance", "fit_q_ipcw"),
    ("nuisance", "fit_mbar"),
    ("eic", "evaluate_nuisances"),
    ("eic", "eic_variance"),
    ("glm", "fit_glm"),
    ("glm", "fit_fluctuation"),
    ("estimators", "run_estimator"),
    ("estimators", "rake_weights"),
    ("roots", "secant"),
    ("roots", "bisect"),
) + tuple(("estimators", f"estimate_{est_id}") for est_id in (
    "aipcw", "ipcw_tmle", "ipcw_tmle_target_pi", "ipcw_tmle_rake_pi",
    "raking", "eee", "quasi_tmle", "tmle_alt",
))


def _result_extra(result) -> tuple:
    """Iteration count and convergence flag of a solver result, if it has them."""
    n_iter = getattr(result, "n_iter", None)
    converged = getattr(result, "converged", None)
    if n_iter is None and converged is None:
        return ()
    return (n_iter, converged)


class Tracer:
    """Records nested spans; one `op` id is shared by the spans of one call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple] = []  # (container, key, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            extra = ("error",)
            try:
                result = fn(*args, **kwargs)
                extra = _result_extra(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (self.op, name, start, end, parent,
                                duration - frame[1], extra)

        return wrapper

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _modules():
        return [mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Replace every reference to a traced function inside the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, attr in TRACED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(module, attr)
            wrappers[id(original)] = self._wrap(f"{module_name}.{attr}", original)
        for module in self._modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._patched.append((namespace, key, value))
                    namespace[key] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in wrappers:
                            self._patched.append((value, dkey, dvalue))
                            value[dkey] = wrappers[id(dvalue)]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self, ops: set[int]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans of that name only),
        self_s, and solver iteration and convergence counts, summed over ops."""
        out: dict[str, dict[str, float]] = {}
        names = [s[1] for s in self.spans]
        for span in self.spans:
            op, name, start, end, parent, self_s, extra = span
            if op not in ops:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "iters": 0, "converged": 0})
            row["calls"] += 1
            row["self_s"] += self_s
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][4]
            if p < 0:
                row["total_s"] += end - start
            if extra and extra != ("error",):
                row["iters"] += extra[0] or 0
                row["converged"] += bool(extra[1])
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for op, name, start, end, parent, self_s, extra in self.spans:
                fh.write(json.dumps({
                    "op": op, "name": name, "start": start, "end": end,
                    "parent": parent, "self_s": self_s, "extra": list(extra),
                }) + "\n")
