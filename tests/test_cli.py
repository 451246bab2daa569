import json
import re

import pytest

from reconfcheck import parse_formula, parse_model, parse_path, print_model, \
    print_path
from reconfcheck.cli import run_cli

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


@pytest.mark.parametrize("formula", [
    "always [started(Nope)]",                     # property cannot be evaluated
    "always [" + "not " * 3000 + "true]",         # nested beyond the recursion limit
    "after run normal " * 3000 + "always [true]",
])
def test_unevaluable_or_too_deep_formula_exit_three(samples_dir, capsys, formula):
    code = run_cli(_check_args(samples_dir, "--formula", formula))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ")
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


def test_simulate_stops_at_terminal(tmp_path, samples_dir, capsys):
    path_file = tmp_path / "short.rp"
    path_file.write_text("run MemorySizeUp")
    code = run_cli(["simulate", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(path_file),
                    "--steps", "10", "--dump-dir", str(tmp_path / "d")])
    assert code == 0
    assert "path ends after 2 steps" in capsys.readouterr().out


def test_idempotence_report(samples_dir, capsys):
    code = run_cli(["idempotence", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(samples_dir / "server.rp")])
    out = capsys.readouterr().out
    assert code == 0
    assert "idempotent (structural): no" in out
    assert "idempotent (ignoring parameter values): yes" in out


def test_idempotence_finite_path(samples_dir, tmp_path, capsys):
    path_file = tmp_path / "fin.rp"
    path_file.write_text("run")
    code = run_cli(["idempotence", "--model", str(samples_dir / "http.arch"),
                    "--ops", str(samples_dir / "http.ops"),
                    "--path", str(path_file)])
    assert code == 0
    assert "no cycle" in capsys.readouterr().out
