import json
import os
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import reconfcheck
from reconfcheck import ComponentModel, build_automaton, checker, parse_formula, parse_model, \
    parse_path, print_model, print_path
from reconfcheck.adl import model_digest
from reconfcheck.cli import run_cli
from reconfcheck.model import Change
from reconfcheck.reconfig import run_path

FORMULA = ("after AddCacheHandler normal "
           "always [bound(CacheHandler.cache, RequestHandler.getCache)]")


def _check_args(samples_dir, *extra):
    return ["check",
            "--model", str(samples_dir / "http.arch"),
            "--ops", str(samples_dir / "http.ops"),
            "--path", str(samples_dir / "server.rp"),
            *extra]


def test_check_holds_exit_zero(samples_dir, capsys):
    code = run_cli(_check_args(samples_dir, "--formula", FORMULA))
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: holds" in out


def test_check_formula_file(samples_dir, capsys):
    code = run_cli(_check_args(samples_dir, "--formula-file",
                               str(samples_dir / "cacheconnected.ftpl")))
    assert code == 0


def test_check_fails_exit_one(samples_dir, tmp_path, capsys):
    bad = tmp_path / "q1.rp"
    bad.write_text("run (RemoveCacheHandler AddCacheHandler MemorySizeUp run "
                   "AddFileServer DurationValidityUp DeleteFileServer)+")
    code = run_cli(["check", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(bad), "--formula", FORMULA])
    out = capsys.readouterr().out
    assert code == 1
    assert "violation" in out


def test_check_bounded_unknown_exit_two(samples_dir, capsys):
    code = run_cli(_check_args(samples_dir, "--formula", FORMULA,
                               "--max-steps", "4"))
    out = capsys.readouterr().out
    assert code == 2
    assert "residual path: run AddFileServer DurationValidityUp DeleteFileServer" in out


def test_check_with_oracle_crosscheck(samples_dir, capsys):
    code = run_cli(_check_args(samples_dir, "--formula", FORMULA, "--oracle"))
    assert code == 0


def test_oracle_disagreement_exit_five(samples_dir, capsys, monkeypatch):
    from reconfcheck import checker

    monkeypatch.setattr(checker, "oracle_verdict", lambda *args, **kwargs: False)
    code = run_cli(_check_args(samples_dir, "--formula", FORMULA, "--oracle"))
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err.startswith("error: oracle cross-check disagreement: "
                                   "checker says holds, oracle says fails")
    # without the cross-check the same verdict stands
    assert run_cli(_check_args(samples_dir, "--formula", FORMULA)) == 0


def _patch_witness(monkeypatch, index=0, violated=None):
    """Report every violation ``index`` positions off, or with its text
    rewritten by ``violated``, as a wrong walk would."""
    from reconfcheck import checker

    fails = checker._fails

    def patched(run, length, i, v, *rest):
        if violated is not None:
            v.violated = violated(v.violated)
        return fails(run, length, i + index, v, *rest)

    monkeypatch.setattr(checker, "_fails", patched)


def _patch_proof(monkeypatch, **rewrite):
    """Hand the proof check the walk's proof with each field named rewritten
    by the function given for it."""
    from reconfcheck import checker

    proof = checker._Violation.proof

    def patched(v):
        p = proof(v)
        return p.__class__(**{f: rewrite[f](p) if f in rewrite else getattr(p, f)
                              for f in p._fields})

    monkeypatch.setattr(checker._Violation, "proof", patched)


_ALWAYS = "always [not component(FileServer2)]"
_AFTER = "after AddCacheHandler normal always [not component(FileServer2)]"
_BEFORE_ALWAYS = "before DeleteFileServer normal always [not component(FileServer2)]"
_BEFORE_EVENTUALLY = "before AddFileServer normal eventually [component(FileServer2)]"


@pytest.mark.parametrize("formula, patch, flaw", [
    (_ALWAYS, lambda mp: _patch_witness(mp, index=1), "reported at 7, not at 6"),
    (_ALWAYS, lambda mp: _patch_witness(mp, index=-1), "reported at 5, not at 6"),
    (_AFTER, lambda mp: _patch_witness(mp, index=1), "reported at 7, not at 6"),
    (_BEFORE_ALWAYS, lambda mp: _patch_witness(mp, index=-1), "reported at 5, not at 6"),
    (_BEFORE_EVENTUALLY, lambda mp: _patch_witness(mp, index=1), "reported at 7, not at 6"),
    (_AFTER, lambda mp: _patch_proof(mp, afters=lambda p: ()),
     "0 after occurrences are given for 1 afters"),
    (_AFTER, lambda mp: _patch_proof(mp, afters=lambda p: (p.afters[0] + 1,)),
     "AddCacheHandler normal does not occur at position 4"),
    (_AFTER, lambda mp: _patch_proof(mp, afters=lambda p: (p.afters[0] - 1,)),
     "AddCacheHandler normal does not occur at position 2"),
    # FileServer2 is present at 6 and 7, then at 11 and 12, one lap later
    (_BEFORE_ALWAYS, lambda mp: _patch_proof(mp, occurrence=lambda p: p.falsified[0]),
     "DeleteFileServer normal does not occur at position 6"),
    (_BEFORE_ALWAYS, lambda mp: _patch_proof(mp, falsified=lambda p: range(11, 12)),
     "range(11, 12) is not one position of the segment range(0, 8)"),
    (_BEFORE_EVENTUALLY, lambda mp: _patch_proof(mp, falsified=lambda p: range(0, 5)),
     "range(0, 5) is not the segment range(0, 6)"),
    (_BEFORE_ALWAYS, lambda mp: _patch_proof(mp, falsified=lambda p: range(5, 6)),
     "[not component(FileServer2)] holds at position 5"),
    (_BEFORE_ALWAYS, lambda mp: _patch_proof(mp, occurrence=lambda p: p.occurrence + 1),
     "DeleteFileServer normal does not occur at position 9"),
    (_BEFORE_EVENTUALLY, lambda mp: _patch_proof(mp, occurrence=lambda p: p.occurrence + 1),
     "AddFileServer normal does not occur at position 7"),
    (_ALWAYS, lambda mp: _patch_witness(mp, violated=lambda t: t.replace("always", "eventually")),
     "reported as 'eventually [not component(FileServer2)] violated'"),
    (_BEFORE_ALWAYS, lambda mp: _patch_witness(
        mp, violated=lambda t: t.replace("DeleteFileServer normal", "DeleteFileServer terminates")),
     "reported as 'before DeleteFileServer terminates: always"),
    (_BEFORE_EVENTUALLY, lambda mp: _patch_witness(
        mp, violated=lambda t: t.replace("eventually", "always")),
     "reported as 'before AddFileServer normal: always [component(FileServer2)] unsatisfied"),
])
def test_a_witness_that_does_not_prove_its_violation_exits_five(formula, patch, flaw,
                                                                samples_dir, capsys, monkeypatch):
    patch(monkeypatch)
    code = run_cli(_check_args(samples_dir, "--formula", formula, "--oracle"))
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: oracle cross-check disagreement: checker says fails, "
                                   "but its witness does not prove it: ")
    assert flaw in captured.err
    # without the cross-check the same wrong witness is reported
    assert run_cli(_check_args(samples_dir, "--formula", formula)) == 1


def test_a_violation_past_the_witness_is_reported_at_its_last_repeat(tmp_path, capsys):
    # E at position 1 finds X present, so the after's occurrence is at 3 and
    # the before's at 5, past the witness of positions 0-4; witness positions
    # 1 and 3 both have position 5's state and configuration, and the
    # violation is reported at the last of them
    (tmp_path / "m.arch").write_text(
        "model M { component A { class K } component X { class K state stopped } }")
    (tmp_path / "m.ops").write_text(
        "op E { add component X { class K } }\nop R { remove component X }\n")
    (tmp_path / "m.rp").write_text("(E R)+")
    code = run_cli(["check", "--model", str(tmp_path / "m.arch"),
                    "--ops", str(tmp_path / "m.ops"), "--path", str(tmp_path / "m.rp"),
                    "--formula", "after E normal before E normal eventually [false]",
                    "--oracle", "--json"])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    w = json.loads(captured.out)["witness"]
    assert w["violation_index"] == 3
    steps = w["steps"]
    assert (steps[1]["state"], steps[1]["digest"]) == (steps[3]["state"], steps[3]["digest"])
    assert steps[3]["digest"] == "bb17850f95d9"


def test_json_report_round_trips(samples_dir, capsys):
    code = run_cli(_check_args(samples_dir, "--formula", FORMULA,
                               "--max-steps", "4", "--json"))
    raw = capsys.readouterr().out
    assert code == 2
    report = json.loads(raw)
    assert report["verdict"] == "unknown"
    assert report["reason"] == "step-budget-exhausted"
    # the residual and reached fields parse back and re-serialize identically
    residual = parse_path(report["residual"])
    reached = parse_model(report["reached"])
    assert print_path(residual) == report["residual"]
    assert print_model(reached) == report["reached"]
    parse_formula(report["formula"])
    assert set(report) == {"verdict", "formula", "reason", "witness",
                           "residual", "reached", "stats"}


def test_json_witness_structure(samples_dir, tmp_path, capsys):
    bad = tmp_path / "q1.rp"
    bad.write_text("run (RemoveCacheHandler AddCacheHandler MemorySizeUp run "
                   "AddFileServer DurationValidityUp DeleteFileServer)+")
    code = run_cli(["check", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(bad), "--formula", FORMULA, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    w = report["witness"]
    assert w["violation_index"] < len(w["steps"])
    assert all(set(s) == {"state", "label", "digest"} for s in w["steps"])


def test_replay_from_unknown_report(samples_dir, tmp_path, capsys):
    code = run_cli(_check_args(samples_dir, "--formula", FORMULA,
                               "--max-steps", "4", "--json"))
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    model_file = tmp_path / "reached.arch"
    model_file.write_text(report["reached"])
    path_file = tmp_path / "rest.rp"
    path_file.write_text(report["residual"])
    code2 = run_cli(["check", "--model", str(model_file),
                     "--ops", str(samples_dir / "http.ops"),
                     "--path", str(path_file), "--formula", FORMULA])
    assert code2 == 0  # the relaunched check completes the exploration


def test_usage_error_exit_three(samples_dir, capsys):
    code = run_cli(["check", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(samples_dir / "server.rp"),
                    "--formula", "always [unclosed"])
    assert code == 3
    code = run_cli(["check", "--model", "does-not-exist.arch",
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(samples_dir / "server.rp"),
                    "--formula", "always [true]"])
    assert code == 3


def test_unevaluable_property_exit_six(samples_dir, capsys):
    code = run_cli(_check_args(samples_dir, "--formula", "always [started(Nope)]"))
    captured = capsys.readouterr()
    assert code == 6
    assert captured.err.startswith("error: started(): unknown component 'Nope'")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("formula", [
    "always [" + "not " * 3000 + "true]",
    "after run normal " * 3000 + "always [true]",
], ids=["not-x3000", "after-x3000"])
def test_too_deep_formula_exit_three(samples_dir, capsys, formula):
    code = run_cli(_check_args(samples_dir, "--formula", formula))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ")
    assert "nested more than 100 levels deep" in captured.err
    assert "Traceback" not in captured.out + captured.err


Q1_PATH = ("run (RemoveCacheHandler AddCacheHandler MemorySizeUp run "
           "AddFileServer DurationValidityUp DeleteFileServer)+")


@pytest.mark.parametrize("formula, witness_steps", [
    (FORMULA, 10),  # up to the violation
    # a before-witness runs through the whole unfolded window
    ("before AddFileServer normal always [component(CacheHandler)]", 9),
])
def test_witness_digests_match_simulate_dumps(samples_dir, tmp_path, capsys, formula,
                                              witness_steps):
    bad = tmp_path / "q1.rp"
    bad.write_text(Q1_PATH)
    args = ["--model", str(samples_dir / "http.arch"),
            "--ops", str(samples_dir / "http.ops"), "--path", str(bad)]
    assert run_cli(["check", *args, "--formula", formula]) == 1
    text = re.findall(r"^  step (\d+): q\d+ \S+ \[(\w+)\]", capsys.readouterr().out, re.M)
    assert run_cli(["check", *args, "--formula", formula, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    digests = [s["digest"] for s in report["witness"]["steps"]]
    assert len(digests) == witness_steps
    assert [int(i) for i, _ in text] == list(range(len(digests)))
    assert [d for _, d in text] == digests
    assert run_cli(["simulate", *args, "--steps", str(len(digests) - 1),
                    "--dump-dir", str(tmp_path / "dump")]) == 0
    simulated = re.findall(r"^step \d+: .*\[(\w+)\]$", capsys.readouterr().out, re.M)
    assert simulated == digests


def test_a_repeated_usage_error_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(["check"]) == 3
    first = capsys.readouterr()
    assert run_cli(["check"]) == 3
    assert capsys.readouterr() == first
    assert first.err.startswith("usage: reconfcheck check [-h]")
    src = str(Path(reconfcheck.__file__).resolve().parents[1])
    cold = subprocess.run([sys.executable, "-m", "reconfcheck.cli", "check"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "COLUMNS": "80", "PYTHONPATH": src})
    assert (cold.returncode, cold.stderr) == (3, first.err)


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_prints_the_same_text_every_time(capsys, argv):
    assert run_cli(argv) == 0
    first = capsys.readouterr()
    assert first.out.startswith("usage: reconfcheck")
    assert run_cli(argv) == 0
    assert capsys.readouterr() == first


def test_a_check_after_a_usage_error_reports_as_usual(samples_dir, capsys):
    assert run_cli(_check_args(samples_dir, "--formula", FORMULA)) == 0
    report = capsys.readouterr()
    assert run_cli(["check", "--formula", FORMULA]) == 3
    assert "required: --model, --path" in capsys.readouterr().err
    assert run_cli(_check_args(samples_dir, "--formula", FORMULA)) == 0
    assert capsys.readouterr() == report
    assert report.out.startswith("verdict: holds\n")


def test_validate_ok(samples_dir, capsys):
    assert run_cli(["validate", "--model", str(samples_dir / "http.arch")]) == 0
    assert "well-formed" in capsys.readouterr().out


def test_validate_broken_model_exit_four(tmp_path, capsys):
    broken = tmp_path / "broken.arch"
    broken.write_text("""
    model Broken {
      composite Top { class T param x : int = 1 contains Leaf }
      component Leaf { class L }
    }
    """)
    code = run_cli(["validate", "--model", str(broken)])
    out = capsys.readouterr().out
    assert code == 4
    assert "violation" in out and "parameters" in out


def test_check_rejects_invalid_model_exit_four(tmp_path, samples_dir, capsys):
    broken = tmp_path / "broken.arch"
    broken.write_text("model B { composite T { class X param y : int = 0 contains L } "
                      "component L { class Y } }")
    code = run_cli(["check", "--model", str(broken),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(samples_dir / "server.rp"),
                    "--formula", "always [true]"])
    assert code == 4


BROKEN = ("model B { composite T { class X param y : int = 0 contains L } "
          "component L { class Y } bind L.o -> T.i }")


@pytest.mark.parametrize("command", [["check", "--formula", "always [true]"],
                                     ["simulate", "--steps", "1", "--dump-dir"],
                                     ["idempotence"]])
def test_every_command_reports_an_invalid_models_violations(tmp_path, samples_dir, capsys,
                                                            command):
    (tmp_path / "broken.arch").write_text(BROKEN)
    if command[0] == "simulate":
        command = command + [str(tmp_path / "dump")]
    code = run_cli([command[0], "--model", str(tmp_path / "broken.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(samples_dir / "server.rp"), *command[1:]])
    assert code == 4
    assert capsys.readouterr() == ("", "violation: composite 'T' has parameters\n"
                                       "violation: binding from 'L' missing output port 'o'\n"
                                       "violation: binding to 'T' missing input port 'i'\n")
    assert not (tmp_path / "dump").exists()


def test_a_parse_error_in_any_input_comes_before_model_violations(tmp_path, samples_dir,
                                                                  capsys):
    (tmp_path / "broken.arch").write_text(BROKEN)
    code = run_cli(["check", "--model", str(tmp_path / "broken.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(samples_dir / "server.rp"), "--formula", "always [true"])
    assert code == 3
    assert capsys.readouterr().err == "error: 1:13: expected ']', found 'end of input'\n"


def test_every_command_validates_its_model_once(tmp_path, samples_dir, capsys, monkeypatch,
                                                http_recipes):
    calls = []
    for name, module in list(sys.modules.items()):
        original = getattr(module, "validate_model", None)
        if name.startswith("reconfcheck") and original is not None:
            def counted(m, original=original):
                calls.append(m)
                return original(m)
            monkeypatch.setattr(module, "validate_model", counted)
    commands = [_check_args(samples_dir, "--formula", FORMULA),
                _check_args(samples_dir, "--formula", FORMULA, "--oracle", "--json"),
                ["simulate", *_check_args(samples_dir)[1:], "--steps", "2",
                 "--dump-dir", str(tmp_path / "dump")],
                ["idempotence", *_check_args(samples_dir)[1:]],
                ["validate", "--model", str(samples_dir / "http.arch")]]
    for argv in commands:
        calls.clear()
        assert run_cli(argv) == 0
        assert len(calls) == 1, argv
    calls.clear()
    model = parse_model((samples_dir / "http.arch").read_text())
    reconfcheck.check(parse_formula(FORMULA), build_automaton(parse_path("run")), model,
                      http_recipes.operation_table())
    assert calls == [model]


def test_a_non_ascii_recipe_name_checks_end_to_end(tmp_path, capsys):
    for name, text in (("m.arch", "model M { component Dépôt { class C } }"),
                       ("m.ops", "op Arrêt { stop Dépôt }"),
                       ("m.rp", "run (Arrêt)+  # stop the depot, again and again")):
        (tmp_path / name).write_text(text, encoding="utf-8")
    args = ["check", "--model", str(tmp_path / "m.arch"), "--ops", str(tmp_path / "m.ops"),
            "--path", str(tmp_path / "m.rp")]
    assert run_cli(args + ["--formula", "before Arrêt normal always [started(Dépôt)]"]) == 0
    assert run_cli(args + ["--formula", "after Arrêt normal always [started(Dépôt)]"]) == 1
    assert re.search(r"^  step 2: q1 Arrêt \[\w+\]  <-- violation$",
                     capsys.readouterr().out, re.M)


def test_simulate_dumps_configurations(samples_dir, tmp_path, capsys):
    out_dir = tmp_path / "dump"
    code = run_cli(["simulate", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(samples_dir / "server.rp"),
                    "--steps", "6", "--dump-dir", str(out_dir)])
    assert code == 0
    dumps = sorted(p.name for p in out_dir.glob("*.arch"))
    assert dumps == [f"step_{i:03d}.arch" for i in range(7)]
    step2 = parse_model((out_dir / "step_002.arch").read_text())
    assert "CacheHandler" not in step2.components  # after RemoveCacheHandler
    step3 = parse_model((out_dir / "step_003.arch").read_text())
    assert "CacheHandler" in step3.components
    log = capsys.readouterr().out
    assert "step 1: run (unchanged)" in log
    assert "step 2: RemoveCacheHandler (changed)" in log


def test_simulate_prints_the_model_digest_of_every_configuration(samples_dir, tmp_path, capsys,
                                                                 http_model, http_ops):
    # every lap removes and adds back CacheHandler and FileServer2
    path = tmp_path / "q1.rp"
    path.write_text(Q1_PATH)
    assert run_cli(["simulate", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"), "--path", str(path),
                    "--steps", "22", "--dump-dir", str(tmp_path / "dump")]) == 0
    printed = re.findall(r"^step \d+: .*\[(\w+)\]$", capsys.readouterr().out, re.M)
    run = run_path(build_automaton(parse_path(Q1_PATH)), http_ops, 0, http_model)
    configs = [http_model, *(c for _label, _q, c in islice(run, 22))]
    assert {len(c.components) for c in configs} == {5, 6, 7}
    assert printed == [model_digest(c) for c in configs]


@pytest.mark.parametrize("path, formula", [
    # `run` changes nothing at the start of samples/server.rp
    (None, "before DeleteFileServer normal always [not component(FileServer2)]"),
    # a child of a composite removed, added back as a root and bound again
    ("(RemoveCacheHandler AddCacheHandler)+",
     "always [subcomponent(CacheHandler, HttpServer) or not component(CacheHandler)]"),
])
def test_witnesses_and_simulate_patch_every_step_by_the_runs_log(samples_dir, tmp_path, capsys,
                                                                  monkeypatch, path, formula):
    # each digester formats the initial model afresh and patches every
    # later configuration from its recorded change, the first step included
    fed, plain = [], checker.model_digester

    def recording():
        digest = plain()
        fed.append([])
        return lambda m: fed[-1].append(type(m)) or digest(m)

    monkeypatch.setattr(checker, "model_digester", recording)
    if path is not None:
        (tmp_path / "p.rp").write_text(path)
    args = ["--model", str(samples_dir / "http.arch"), "--ops", str(samples_dir / "http.ops"),
            "--path", str(samples_dir / "server.rp" if path is None else tmp_path / "p.rp")]
    assert run_cli(["check", *args, "--formula", formula, "--json"]) == 1
    assert len(json.loads(capsys.readouterr().out)["witness"]["steps"]) > 2
    assert run_cli(["simulate", *args, "--steps", "6", "--dump-dir", str(tmp_path / "d")]) == 0
    assert len(re.findall(r"^step \d+: ", capsys.readouterr().out, re.M)) == 7
    assert len(fed) == 2 and len(fed[0]) > 1 and len(fed[1]) == 7
    assert all(types[0] is ComponentModel and set(types[1:]) == {Change} for types in fed)


def test_simulate_stops_at_terminal(tmp_path, samples_dir, capsys):
    path_file = tmp_path / "short.rp"
    path_file.write_text("run MemorySizeUp")
    code = run_cli(["simulate", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(path_file),
                    "--steps", "10", "--dump-dir", str(tmp_path / "d")])
    assert code == 0
    assert "path ends after 2 steps" in capsys.readouterr().out


def test_simulate_takes_a_step_count_past_sys_maxsize(tmp_path, samples_dir, capsys):
    path_file = tmp_path / "one.rp"
    path_file.write_text("run")
    code = run_cli(["simulate", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(path_file), "--steps", str(2**63),
                    "--dump-dir", str(tmp_path / "d")])
    out = capsys.readouterr().out
    assert code == 0
    assert "step 1: run (unchanged)" in out
    assert out.endswith("path ends after 1 steps\n")


def test_check_takes_a_budget_past_sys_maxsize(tmp_path, capsys):
    # the gate refuses p = 0, 1, 0, ...; the window repeats exactly after two steps
    (tmp_path / "m.arch").write_text("model M { component A { class X param p : int = 0 } }")
    (tmp_path / "m.ops").write_text("op Flip { set A.p := 1 - param(A.p) }")
    (tmp_path / "m.rp").write_text("(Flip)+")
    args = ["check", "--model", str(tmp_path / "m.arch"), "--ops", str(tmp_path / "m.ops"),
            "--path", str(tmp_path / "m.rp"), "--formula", "always [A.p < 1]", "--max-steps"]
    assert run_cli([*args, str(2**63)]) == 1
    out = capsys.readouterr().out
    assert run_cli([*args, "10"]) == 1
    assert out == capsys.readouterr().out


def test_idempotence_report(samples_dir, capsys):
    code = run_cli(["idempotence", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(samples_dir / "server.rp")])
    out = capsys.readouterr().out
    assert code == 0
    assert "idempotent (structural): no" in out
    assert "idempotent (ignoring parameter values): yes" in out


@pytest.mark.parametrize("path, structural", [
    (None, "no"),  # server.rp: only the erased gate admits
    ("(RemoveCacheHandler AddCacheHandler)+", "yes"),
])
def test_idempotence_applies_the_run_to_the_gate_once(path, structural, samples_dir,
                                                      tmp_path, capsys, monkeypatch):
    # both answers are read off one run to P+2|C|: 13 transitions on server.rp
    from reconfcheck import checker, reconfig

    applied = []
    for module in (checker, reconfig):
        apply = module.apply_evolution
        monkeypatch.setattr(module, "apply_evolution",
                            lambda op, c, apply=apply: applied.append(op) or apply(op, c))
    args = _check_args(samples_dir)[1:]
    if path is not None:
        (tmp_path / "cycle.rp").write_text(path)
        args[-1] = str(tmp_path / "cycle.rp")
    assert run_cli(["idempotence", *args]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-2:] == [f"idempotent (structural): {structural}",
                                     "idempotent (ignoring parameter values): yes"]
    assert len(applied) == (13 if path is None else 4)


def test_idempotence_finite_path(samples_dir, tmp_path, capsys):
    path_file = tmp_path / "fin.rp"
    path_file.write_text("run")
    code = run_cli(["idempotence", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(path_file)])
    assert code == 0
    assert "no cycle" in capsys.readouterr().out


def test_simulate_logs_a_recipe_that_cancels_out_as_unchanged(samples_dir, tmp_path, capsys):
    ops = tmp_path / "bounce.ops"
    ops.write_text("op Bounce { stop CacheHandler start CacheHandler }")
    path = tmp_path / "bounce.rp"
    path.write_text("Bounce")
    out_dir = tmp_path / "dump"
    assert run_cli(["simulate", "--model", str(samples_dir / "http.arch"), "--ops", str(ops),
                    "--path", str(path), "--steps", "1", "--dump-dir", str(out_dir)]) == 0
    log = capsys.readouterr().out.splitlines()
    digest = re.fullmatch(r"step 0: initial \[(\w+)\]", log[0]).group(1)
    # the recipe builds a new model equal to its input
    assert log[1:] == [f"step 1: Bounce (unchanged) [{digest}]"]
    assert (out_dir / "step_001.arch").read_text() == (out_dir / "step_000.arch").read_text()


SQUARE_MODEL = "model M { component A { class C param x : int = 2 } }"
SQUARE_OPS = "op Sq { set A.x := param(A.x) * param(A.x) }"


def _square_args(tmp_path):
    files = {"m.arch": SQUARE_MODEL, "m.ops": SQUARE_OPS, "p.rp": "(Sq)+"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return ["--model", str(tmp_path / "m.arch"), "--ops", str(tmp_path / "m.ops"),
            "--path", str(tmp_path / "p.rp")]


def _square_text(steps: int) -> str:
    # 2 squared `steps` times has 4,933 digits at 14 steps, past Python's
    # default limit of 4,300 for int-to-str conversion
    from decimal import Decimal
    return str(Decimal(2 ** 2 ** steps))


@pytest.mark.parametrize("formula, code, status", [
    ("always [A.x > 0]", 2, "unknown"),
    ("always [A.x < 100]", 1, "fails"),
])
def test_parameter_values_past_the_digit_limit_keep_the_verdict(tmp_path, capsys, formula,
                                                                code, status):
    args = ["check", *_square_args(tmp_path), "--formula", formula, "--max-steps", "14"]
    assert run_cli(args) == code
    text, err = capsys.readouterr()
    assert err == ""
    assert text.startswith(f"verdict: {status}\n")
    assert text.endswith("transitions applied: 14\n")
    assert run_cli([*args, "--json"]) == code
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and report["verdict"] == status
    if status == "unknown":
        assert report["residual"] == "(Sq)+"
        assert f"param x : int = {_square_text(14)}\n" in report["reached"]
        assert "reached model digest: " in text
    else:
        steps = report["witness"]["steps"]
        assert len(steps) == 15 and report["witness"]["violation_index"] == 3
        # the witness digests are those of the simulated configurations
        assert run_cli(["simulate", *_square_args(tmp_path), "--steps", "14",
                        "--dump-dir", str(tmp_path / "dump")]) == 0
        log = capsys.readouterr().out
        assert re.findall(r"^step \d+: .*\[(\w+)\]$", log, re.M) == [s["digest"] for s in steps]
        assert log.endswith("step 14: Sq (changed) [" + steps[-1]["digest"] + "]\n")
        assert f"param x : int = {_square_text(14)}\n" in \
            (tmp_path / "dump" / "step_014.arch").read_text()


@pytest.mark.parametrize("as_json", [False, True])
def test_running_out_of_memory_exits_three_not_fails(tmp_path, capsys, monkeypatch, as_json):
    from reconfcheck import cli

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "check", exhausted)
    args = ["check", *_square_args(tmp_path), "--formula", "always [A.x > 0]", "--oracle"]
    assert run_cli(args + ["--json"] * as_json) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: out of memory")


@pytest.mark.parametrize("as_json", [False, True])
def test_a_closed_standard_output_exits_seven_not_fails(samples_dir, as_json):
    # the read end is closed before the process starts, so its first write
    # fails, as under `check --json | head -c 0`
    args = _check_args(samples_dir, "--formula",
                       "always [forall x in components (not class(x) = RequestHandler)]")
    src = str(Path(reconfcheck.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "reconfcheck.cli", *args,
                               *["--json"] * as_json],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert proc.returncode == 7
    assert proc.stderr == b""


@pytest.mark.parametrize("command,extra", [
    ("check", ["--formula", "always [true]", "--max-steps", "1"]),
    ("simulate", ["--steps", "1"]),
])
def test_an_unwritable_dump_dir_exits_three_not_fails(samples_dir, tmp_path, capsys,
                                                      command, extra):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    code = run_cli([command, "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(samples_dir / "server.rp"),
                    *extra, "--dump-dir", str(blocker)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker}{os.sep}"), err
    assert "Traceback" not in err


def test_simulate_refuses_a_negative_step_count(samples_dir, tmp_path, capsys, http_model):
    def simulate(steps, out_dir):
        return run_cli(["simulate", "--model", str(samples_dir / "http.arch"),
                        "--ops", str(samples_dir / "http.ops"),
                        "--path", str(samples_dir / "server.rp"),
                        "--steps", steps, "--dump-dir", str(out_dir)])

    assert simulate("-1", tmp_path / "negative") == 3
    assert "error: --steps must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "negative").exists()
    assert simulate("0", tmp_path / "zero") == 0
    assert [p.name for p in (tmp_path / "zero").iterdir()] == ["step_000.arch"]
    assert capsys.readouterr().out == f"step 0: initial [{model_digest(http_model)}]\n"


X_STARTED = "model M {\n  component X {\n    class K\n    state started\n  }\n}\n"
X_STOPPED = X_STARTED.replace("state started", "state stopped")


@pytest.mark.parametrize("path, labels, finite", [
    ("run P P A", ["run", "P", "P", "A"], True),
    ("P (A B)+", ["P", "A", "B", "A", "B", "A"], False),
])
@pytest.mark.parametrize("steps", [0, 3, 4, 6])
def test_simulate_around_the_end_of_the_path(tmp_path, capsys, path, labels, finite, steps):
    # the finite path has L = 4 transitions: no steps, L - 1, L (the terminal
    # state reached at the last step asked for) and L + 2; the lasso goes on
    files = {"m.arch": X_STARTED, "m.ops": "op P { stop X } op A { start X } op B { stop X }",
             "p.rp": path}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out_dir = tmp_path / "dump"
    assert run_cli(["simulate", "--model", str(tmp_path / "m.arch"),
                    "--ops", str(tmp_path / "m.ops"), "--path", str(tmp_path / "p.rp"),
                    "--steps", str(steps), "--dump-dir", str(out_dir)]) == 0

    states = {"run": X_STARTED, "P": X_STOPPED, "A": X_STARTED, "B": X_STOPPED}
    texts = [X_STARTED] + [states[label] for label in labels]
    digest = [model_digest(parse_model(text)) for text in texts]
    taken = min(steps, len(labels)) if finite else steps
    expected = [f"step 0: initial [{digest[0]}]"] + [
        f"step {i}: {labels[i - 1]} "
        f"({'unchanged' if texts[i] == texts[i - 1] else 'changed'}) [{digest[i]}]"
        for i in range(1, taken + 1)]
    if taken < steps:
        expected.append(f"path ends after {taken} steps")
    assert capsys.readouterr().out == "".join(line + "\n" for line in expected)
    dumps = {p.name: p.read_text() for p in out_dir.iterdir()}
    assert dumps == {f"step_{i:03d}.arch": texts[i] for i in range(taken + 1)}


@pytest.mark.parametrize("error", [
    AssertionError("operator instance applied 9 transitions, exceeding 2*|Q| = 8"),
    TypeError("not a formula node: None"),
])
@pytest.mark.parametrize("as_json", [False, True])
def test_an_internal_error_exits_eight_not_fails(samples_dir, capsys, monkeypatch, error,
                                                 as_json):
    from reconfcheck import cli

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "check", broken)
    args = _check_args(samples_dir, "--formula", FORMULA, *["--json"] * as_json)
    monkeypatch.setattr(sys, "argv", ["reconfcheck", *args])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == cli.EXIT_INTERNAL_ERROR == 8
    out, err = capsys.readouterr()
    assert out == ""  # no verdict line, nor a report
    assert err.startswith("Traceback (most recent call last):\n")
    assert f"{type(error).__name__}: {error}\n" in err
    assert err.endswith("error: internal error, no verdict was reached\n")


def test_marks_that_stop_an_unfolding_early_exit_eight(samples_dir, capsys, monkeypatch):
    # marks that allow one pass stop an eventually run before its repeat:
    # the termination obligation raises, and no verdict is reported
    from reconfcheck import checker, cli

    monkeypatch.setattr(checker, "_fresh_marks", lambda a: [checker._Mark.AGAIN] * a.n_states)
    args = _check_args(samples_dir, "--formula", "eventually [false]")
    assert cli.run_cli(args) == cli.EXIT_INTERNAL_ERROR == 8
    out, err = capsys.readouterr()
    assert out == ""
    assert ("AssertionError: instance unfolding ended with neither a period "
            "nor a terminal state\n") in err
