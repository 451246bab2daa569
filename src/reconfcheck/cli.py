"""Command-line front end.

Four batch commands tie the file formats together:

* ``check``       verify a formula along a path (exit 0 holds / 1 fails /
                  2 unknown)
* ``simulate``    apply N path steps, dumping every configuration
* ``idempotence`` report whether the path's cycle is idempotent
* ``validate``    run the structural validator on a model

Exit codes 3 and 4 flag parse/usage errors (input nested too deeply and
running out of memory included) and invalid models, 5 a verdict the
``--oracle`` cross-check contradicts or a ``fails`` witness that does not
prove its violation, 6 a property that cannot be
evaluated (an unknown identifier in an attribute atom), 7 a standard
output closed before the report was written, and 8 an internal error (a
defect, shown with its traceback); none of these is reported as "fails".
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import islice
from pathlib import Path
from typing import Optional

from .adl import (
    AdlValidationError,
    RecipeSet,
    model_digest,
    model_digester,
    parse_model,
    parse_recipes,
    print_model,
)
from .checker import CheckError, CheckOptions, OracleDisagreement, Verdict, check, gate_admits
from .ftpl import parse_formula, print_formula
from .model import ComponentModel, CpEvalError, validate_model
from .pathspec import build_automaton, parse_path, print_path
# apply_evolution and is_idempotent_sequence, which nothing here calls, stay
# importable because perfbench/tracer.py rebinds them here
from .reconfig import apply_evolution, is_idempotent_sequence, run_path  # noqa: F401

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INVALID_MODEL = 4
EXIT_DISAGREEMENT = 5
EXIT_ILL_FORMED_PROPERTY = 6
EXIT_OUTPUT_CLOSED = 7
EXIT_INTERNAL_ERROR = 8

_VERDICT_EXITS = {"holds": EXIT_HOLDS, "fails": EXIT_FAILS, "unknown": EXIT_UNKNOWN}


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _load_inputs(args):
    model = parse_model(_read(args.model))
    recipes = parse_recipes(_read(args.ops)) if args.ops else RecipeSet({})
    path = parse_path(_read(args.path), known_ops=recipes.names())
    return model, recipes, path


def _load_valid_inputs(args):
    """The inputs of a command that applies the path itself; ``check``
    validates the model it is given."""
    model, recipes, path = _load_inputs(args)
    violations = validate_model(model)
    if violations:
        raise AdlValidationError(violations)
    return model, recipes, path


def _dump(directory: str, name: str, model: ComponentModel) -> None:
    """Write ``model`` to ``directory/name``, making the directory as needed."""
    target = Path(directory) / name
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(print_model(model), encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {target}: {exc}") from None


def _formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    return _read(args.formula_file)


def _verdict_report(verdict: Verdict, formula_text: str) -> dict:
    report: dict = {
        "verdict": verdict.status,
        "formula": formula_text,
        "reason": verdict.reason,
        "witness": None,
        "residual": None,
        "reached": None,
        "stats": None,
    }
    if verdict.witness is not None:
        report["witness"] = {
            "steps": [{"state": s.state, "label": s.label, "digest": s.digest}
                      for s in verdict.witness.steps],
            "violation_index": verdict.witness.violation_index,
            "violated": verdict.witness.violated,
        }
    if verdict.residual is not None:
        report["residual"] = print_path(verdict.residual)
    if verdict.reached is not None:
        report["reached"] = print_model(verdict.reached)
    if verdict.stats is not None:
        report["stats"] = {
            "transitions_applied": verdict.stats.transitions_applied,
            "cp_evaluations": verdict.stats.cp_evaluations,
            "max_instance_transitions": verdict.stats.max_instance_transitions,
        }
    return report


def _print_verdict(verdict: Verdict, formula_text: str, as_json: bool) -> int:
    if as_json:
        import json  # only --json reports need it

        print(json.dumps(_verdict_report(verdict, formula_text), indent=2, sort_keys=True))
        return _VERDICT_EXITS[verdict.status]
    print(f"verdict: {verdict.status}")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    if verdict.witness is not None:
        w = verdict.witness
        print(f"violated: {w.violated}")
        for i, s in enumerate(w.steps):
            flag = "  <-- violation" if i == w.violation_index else ""
            label = s.label or "(initial)"
            print(f"  step {i}: q{s.state} {label} [{s.digest}]{flag}")
    if verdict.residual is not None:
        print(f"residual path: {print_path(verdict.residual)}")
    if verdict.reached is not None:
        print(f"reached model digest: {model_digest(verdict.reached)}")
    if verdict.stats is not None:
        print(f"transitions applied: {verdict.stats.transitions_applied}")
    return _VERDICT_EXITS[verdict.status]


def _cmd_check(args) -> int:
    model, recipes, path = _load_inputs(args)
    formula_text = _formula_text(args).strip()
    formula = parse_formula(formula_text, known_ops=recipes.names())
    automaton = build_automaton(path)
    opts = CheckOptions(max_steps=args.max_steps, oracle_crosscheck=args.oracle)
    verdict = check(formula, automaton, model, recipes.operation_table(), opts)
    code = _print_verdict(verdict, print_formula(formula), args.json)
    if args.dump_dir and verdict.reached is not None:
        _dump(args.dump_dir, "reached.arch", verdict.reached)
    return code


def _cmd_simulate(args) -> int:
    if args.steps < 0:
        raise _UsageError("--steps must be at least 0")
    model, recipes, path = _load_valid_inputs(args)
    automaton = build_automaton(path)
    # the model holds the run's index from here on, so each step's digest reads the run's log
    run = run_path(automaton, recipes.operation_table(), 0, model)
    digest = model_digester()  # successive configurations share components
    current, step = model, 0
    _dump(args.dump_dir, "step_000.arch", current)
    print(f"step 0: initial [{digest(current)}]")
    for step, (label, _q, nxt) in enumerate(islice(run, min(args.steps, sys.maxsize)), 1):
        changed = "changed" if nxt != current else "unchanged"
        current = nxt
        _dump(args.dump_dir, f"step_{step:03d}.arch", current)
        print(f"step {step}: {label} ({changed}) [{digest(current)}]")
    if step < args.steps:
        print(f"path ends after {step} steps")
    return 0


def _cmd_idempotence(args) -> int:
    model, recipes, path = _load_valid_inputs(args)
    automaton = build_automaton(path)
    ops = recipes.operation_table()
    if not automaton.has_cycle:
        print("path has no cycle; idempotence does not apply")
        return 0
    structural, topological = gate_admits(automaton, ops, model)
    print(f"cycle: {' '.join(automaton.cycle_labels())}")
    print(f"idempotent (structural): {'yes' if structural else 'no'}")
    print(f"idempotent (ignoring parameter values): {'yes' if topological else 'no'}")
    return 0


def _cmd_validate(args) -> int:
    model = parse_model(_read(args.model))
    violations = validate_model(model)
    if not violations:
        print(f"model '{model.name}' is well-formed "
              f"({len(model.components)} components, {len(model.bindings)} bindings)")
        return 0
    for v in violations:
        print(f"violation: {v}")
    return EXIT_INVALID_MODEL


# built on the first call, not at import, and then kept: parsing leaves the
# parser as it was, and usage and help are formatted anew on each use
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconfcheck",
        description="Check temporal properties of component reconfiguration paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", required=True, help="architecture file (.arch)")
        p.add_argument("--ops", help="recipe file (.ops)")
        p.add_argument("--path", required=True, help="reconfiguration path file (.rp)")

    p_check = sub.add_parser("check", help="check a formula along a path")
    add_common(p_check)
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text")
    group.add_argument("--formula-file", help="formula file (.ftpl)")
    p_check.add_argument("--max-steps", type=int, default=None,
                         help="bound on explored transitions (bounded checking)")
    p_check.add_argument("--oracle", action="store_true",
                         help="cross-check the verdict against the brute-force oracle")
    p_check.add_argument("--dump-dir", help="directory for the reached model on unknown")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")

    p_sim = sub.add_parser("simulate", help="apply path steps, dumping configurations")
    add_common(p_sim)
    p_sim.add_argument("--steps", type=int, required=True, help="number of steps to apply")
    p_sim.add_argument("--dump-dir", required=True, help="output directory for .arch dumps")

    p_idem = sub.add_parser("idempotence", help="report cycle idempotence")
    add_common(p_idem)

    p_val = sub.add_parser("validate", help="validate a model file")
    p_val.add_argument("--model", required=True, help="architecture file (.arch)")

    return parser


_COMMANDS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "idempotence": _cmd_idempotence,
    "validate": _cmd_validate,
}


def run_cli(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`| head`): point stdout at devnull, so that the
        # interpreter's last flush of what is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OUTPUT_CLOSED
    except AdlValidationError as exc:
        for v in exc.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OracleDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CpEvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ILL_FORMED_PROPERTY
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # a squaring parameter or an unbounded run can outgrow memory; exit 1
        # would read as "fails", a verdict that was never reached
        print("error: out of memory before a result was reached", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a defect in any layer, the checker's own safety assertions included;
        # traceback is imported only here, as it adds about 2 ms to every start
        import traceback
        traceback.print_exc()
        print("error: internal error, no verdict was reached", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
