"""Outside-in tracing: spans around the calls into each reconfcheck layer.

Nothing inside ``src/`` is instrumented.  Instead the traced run rebinds each
public function *where it is called* -- the name ``model_digest`` inside
``reconfcheck.checker``, the name ``eval_cp`` inside ``reconfcheck.oracle``,
and so on -- never at its definition, because ``model.eval_cp`` recurses
through its own module global and would otherwise count every subformula.
The benchmark's own calls into the library go through an ``Api`` object
whose attributes are rebound the same way.

A span's self time is its duration, in CPU time of the process like every
time the benchmark takes, minus the time covered by its child spans.  Spans are kept in memory, grouped by check, and written out when
the run ends.  Work the tracer does for a ratio (the repeat key of an
``eval_cp`` call) happens outside every span and is subtracted from the
enclosing one, so it shows only in the tracing overhead.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

from reconfcheck.adl import print_model

# caller module -> {attribute: layer name}
CALL_SITES: dict[str, dict[str, str]] = {
    "reconfcheck.cli": {
        "parse_model": "adl.parse_model",
        "parse_recipes": "adl.parse_recipes",
        "model_digest": "adl.model_digest",
        "print_model": "adl.print_model",
        "parse_path": "pathspec.parse_path",
        "build_automaton": "pathspec.build_automaton",
        "parse_formula": "ftpl.parse_formula",
        "check": "checker.check",
        "validate_model": "model.validate_model",
        "apply_evolution": "reconfig.apply_evolution",
        "is_idempotent_sequence": "reconfig.is_idempotent_sequence",
    },
    "reconfcheck.adl": {
        "print_model": "adl.print_model",
        "validate_model": "model.validate_model",
    },
    "reconfcheck.checker": {
        "model_digest": "adl.model_digest",
        "event_holds": "ftpl.event_holds",
        "erasure_invariant": "ftpl.erasure_invariant",
        "eval_cp": "model.eval_cp",
        "erase_param_values": "model.erase_param_values",
        "validate_model": "model.validate_model",
        "apply_evolution": "reconfig.apply_evolution",
        "apply_sequence": "reconfig.apply_sequence",
        "is_idempotent_sequence": "reconfig.is_idempotent_sequence",
        "oracle_verdict": "oracle.oracle_verdict",
        "oracle_eval_detailed": "oracle.oracle_eval_detailed",
        "_unfold": "oracle._unfold",
    },
    "reconfcheck.oracle": {
        "event_holds": "ftpl.event_holds",
        "erasure_invariant": "ftpl.erasure_invariant",
        "eval_cp": "model.eval_cp",
        "erase_param_values": "model.erase_param_values",
        "apply_evolution": "reconfig.apply_evolution",
        "unfold_to_lasso": "oracle.unfold_to_lasso",
        "oracle_eval": "oracle.oracle_eval",
    },
    "reconfcheck.reconfig": {
        "apply_evolution": "reconfig.apply_evolution",
        "erase_param_values": "model.erase_param_values",
    },
}

# the benchmark's own call sites (attributes of the Api object)
API_SITES = {
    "run_cli": "cli.run_cli",
    "parse_model": "adl.parse_model",
    "parse_recipes": "adl.parse_recipes",
    "parse_path": "pathspec.parse_path",
    "parse_formula": "ftpl.parse_formula",
    "build_automaton": "pathspec.build_automaton",
    "check": "checker.check",
}

LAYERS = sorted(set(API_SITES.values()) |
                {layer for sites in CALL_SITES.values() for layer in sites.values()})

# spans kept for the spans file (the first ones); the counters see every span
MAX_KEPT_SPANS = 200_000


class Tracer:
    """Collects spans and per-layer counters while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.checks = 0
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.span_count = 0
        self.eval_cp_repeats = 0
        self.eval_cp_check_calls = 0
        self.lasso_entries: Counter[str] = Counter()
        self._stack: list[list] = []
        self._oracle_depth = 0
        self._seen_cp: set = set()
        self._model_keys: dict[int, tuple] = {}
        self._restore: list[tuple[object, str, object]] = []

    # --- per-check bookkeeping ---------------------------------------------------

    def begin_check(self) -> None:
        self.checks += 1
        self._seen_cp.clear()
        self._model_keys.clear()
        self.active = True

    def end_check(self) -> None:
        self.active = False

    # --- spans --------------------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        hooks = {
            "model.eval_cp": self._eval_cp_hook,
            "oracle.oracle_verdict": self._oracle_hook,
            "oracle.unfold_to_lasso": self._unfold_hook,
            "oracle._unfold": self._unfold_hook,
        }
        if layer in hooks:
            return hooks[layer](layer, fn)
        return self._plain(layer, fn)

    def _plain(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def _enter(self, layer: str) -> list:
        self.span_count += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [layer, self.span_count, parent, 0.0, time.process_time()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.process_time()
        self._stack.pop()
        layer, span_id, parent, child_s, start = frame
        duration = end - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((self.checks, span_id, parent, layer, start, end))

    def _untimed(self, start: float) -> None:
        """Keep tracer work since ``start`` out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][3] += time.process_time() - start

    # --- hooks for the ratios ---------------------------------------------------------

    def _model_key(self, model) -> str:
        entry = self._model_keys.get(id(model))
        if entry is None:
            # holding the model keeps its id from being reused within the check
            entry = self._model_keys[id(model)] = (model, print_model(model))
        return entry[1]

    def _eval_cp_hook(self, layer: str, fn: Callable) -> Callable:
        traced = self._plain(layer, fn)
        tracer = self

        def eval_cp(cp, model, *rest):
            if tracer.active:
                start = time.process_time()
                key = (cp, tracer._model_key(model))
                if key in tracer._seen_cp:
                    tracer.eval_cp_repeats += 1
                else:
                    tracer._seen_cp.add(key)
                if tracer._oracle_depth == 0:
                    tracer.eval_cp_check_calls += 1
                tracer._untimed(start)
            return traced(cp, model, *rest)

        return eval_cp

    def _oracle_hook(self, layer: str, fn: Callable) -> Callable:
        traced = self._plain(layer, fn)
        tracer = self

        def oracle_verdict(*args, **kwargs):
            tracer._oracle_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                tracer._oracle_depth -= 1

        return oracle_verdict

    def _unfold_hook(self, layer: str, fn: Callable) -> Callable:
        traced = self._plain(layer, fn)
        tracer = self

        def unfold(*args, **kwargs):
            lasso = traced(*args, **kwargs)
            if tracer.active:
                tracer.lasso_entries[layer] += len(lasso.entries)
            return lasso

        return unfold

    # --- installation ---------------------------------------------------------------

    def install(self, api) -> None:
        for module_name, sites in CALL_SITES.items():
            module = importlib.import_module(module_name)
            for attr, layer in sites.items():
                self._rebind(module, attr, layer)
        for attr, layer in API_SITES.items():
            self._rebind(api, attr, layer)

    def _rebind(self, owner, attr: str, layer: str) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- results ------------------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for check, span_id, parent, layer, start, end in self.spans:
                out.write(json.dumps({"check": check, "span": span_id, "parent": parent,
                                      "layer": layer, "start_us": round(start * 1e6, 1),
                                      "end_us": round(end * 1e6, 1)}) + "\n")
