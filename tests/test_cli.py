"""End-to-end tests: the installed CLI, exit statuses, report bytes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from premetric import cli, config

ROOT = Path(__file__).resolve().parent.parent


def child_env():
    """The environment with the checkout's src first on PYTHONPATH, so a
    child interpreter imports this package whether or not it is installed."""
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_cli(*args, text=True):
    return subprocess.run([sys.executable, "-m", "premetric.cli", *args],
                          capture_output=True, text=text, timeout=300,
                          env=child_env())


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


BASE = {"n": 4, "p": 2, "seed": 42, "samples": 3}


def test_importing_the_cli_loads_no_introspection_modules():
    # dataclasses, typing and inspect (with ast and dis) cost more to import
    # than the package itself, and no module needs postponed annotations;
    # compare with what site had already loaded
    probe = ("import sys; before = set(sys.modules); import premetric.cli; "
             "print(*sorted(set(sys.modules) - before))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env=child_env(), timeout=60, check=True)
    loaded = set(r.stdout.split())
    assert "premetric.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "ast", "dis", "__future__"}


def test_check_all_pass_exits_zero(tmp_path):
    cfg = write_config(tmp_path, "ok.json", BASE)
    r = run_cli("check", "--config", cfg)
    assert r.returncode == 0
    assert "[FAIL]" not in r.stdout
    assert r.stdout.startswith("report: check (seed 42)")
    assert "conservation-0000" in r.stdout
    assert "identity-0000-sym" in r.stdout
    assert r.stdout.rstrip().endswith("failed")


def test_custom_law_phi_failure_exits_one(tmp_path):
    cfg = write_config(tmp_path, "phi.json", {
        "n": 4, "p": 2, "seed": 1, "samples": 1,
        "F": "dx0^dx1 + (x2)*dx1^dx3",
        "constitutive": {"kind": "custom", "G": "(x1)*dx2^dx3"},
    })
    r = run_cli("constitutive", "--config", cfg)
    assert r.returncode == 1
    assert "[FAIL]" in r.stdout
    assert "witness:" in r.stdout
    # the balance identity must hold even when phi_u does not vanish
    for line in r.stdout.splitlines():
        if "balance" in line:
            assert "[PASS]" in line


def test_malformed_form_exits_two_with_position(tmp_path):
    cfg = write_config(tmp_path, "bad.json", dict(BASE, F="dx0 ^^ dx1"))
    r = run_cli("check", "--config", cfg)
    assert r.returncode == 2
    assert r.stdout == ""          # no partial report
    assert "1:" in r.stderr        # line:column diagnostic


@pytest.mark.parametrize("payload, message", [
    ({"F": "(x0"}, "F: 1:4: expected ')'"),
    ({"Z0": "1e2000000"}, "Z0: rational literal exceeds the limit of 4300 digits"),
    ({"constitutive": {"kind": "linear-local", "chi": [[0, 0, 0, "1e2000000"]]}},
     "constitutive.chi[0][3]: rational literal exceeds the limit of 4300 digits"),
    # keys and values nothing would read are refused, not ignored
    ({"suites": ["conservation", "conservation"]},
     "suites: duplicate suite 'conservation'"),
    ({"metric": {"diagonal": [1, -1, -1, -1], "matrix": [[1]]}},
     "metric: expected 'diagonal' or 'matrix', not both"),
    ({"metric": {"diagonal": [1, -1, -1, -1], "signature": [1, 3]}},
     "metric: unknown keys ['signature']"),
    ({"constitutive": {"kind": "maxwell-lorentz", "Z0": 1, "alpah": "x1"}},
     "constitutive: unknown keys for kind 'maxwell-lorentz': ['alpah']"),
    ({"constitutive": {"kind": "axion", "Z0": 1, "alpha": "x1", "chi": []}},
     "constitutive: unknown keys for kind 'axion': ['chi']"),
    ({"constitutive": {"kind": "linear-local", "Z0": 1, "chi": []}},
     "constitutive: unknown keys for kind 'linear-local': ['Z0']"),
    ({"constitutive": {"kind": "custom", "G": "dx2^dx3", "Z0": None}},
     "constitutive: unknown keys for kind 'custom': ['Z0']"),
    ({"z": []}, "z: expected a rational or a nonempty list"),
    ({"metric": {"diagonal": [1, -1, "x", -1]}},
     "metric.diagonal[2]: not a rational literal: 'x'"),
    ({"metric": {"matrix": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, True],
                            [0, 0, 0, -1]]}},
     "metric.matrix[2][3]: expected a rational, got a boolean"),
    # law shapes are refused at validation, before any suite runs
    ({"n": 5, "constitutive": {"kind": "axion", "Z0": 1, "alpha": "x0"}},
     "constitutive.alpha: axion term needs n = 2p"),
    # the axion alpha is a real pseudoscalar, in either scalar mode
    ({"mode": "complex", "constitutive": {"kind": "axion", "Z0": 1, "alpha": "i"}},
     "constitutive.alpha: axion alpha must be real, got an imaginary coefficient"),
    ({"constitutive": {"kind": "linear-local", "chi": [[1, 0], [0, 1]]}},
     "constitutive.chi: chi must be 6x6 for n=4, p=2"),
    # an empty list does not fall back to the default suites
    ({"suites": []}, "suites: expected a nonempty list of suite names"),
])
def test_config_errors_name_their_key_quickly(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, "keyed.json", {**BASE, **payload})
    start = time.monotonic()
    assert cli.main(["check", "--config", cfg]) == 2
    assert time.monotonic() - start < 0.1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"premetric: error: {message}\n"


@pytest.mark.parametrize("content", [
    b'{"Z0": ' + b"1" * 4301 + b"}",    # over the interpreter's int digit limit
    b'{"n": \xff}',                      # not UTF-8
    b'{"z": ' + b"[" * 100000 + b"]" * 100000 + b"}",   # past the recursion limit
])
def test_unreadable_config_exits_two(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert cli.main(["check", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("premetric: error: cannot read config: ")
    assert err.count("\n") == 1


def test_bad_config_value_exits_two(tmp_path):
    cfg = write_config(tmp_path, "bad2.json", dict(BASE, p=9))
    r = run_cli("check", "--config", cfg)
    assert r.returncode == 2
    assert "p:" in r.stderr
    assert r.stdout == ""


def test_missing_config_flag_exits_two():
    r = run_cli("check")
    assert r.returncode == 2


def test_unknown_subcommand_exits_two():
    r = run_cli("frobnicate", "--config", "x.json")
    assert r.returncode == 2


def test_structured_reports_byte_identical_for_fixed_seed(tmp_path):
    cfg = write_config(tmp_path, "det.json", dict(BASE, mode="complex"))
    outs = []
    for k in range(2):
        r = run_cli("reciprocity", "--config", cfg, "--format", "structured")
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["schema"] == 1
    assert doc["summary"]["status"] == "PASS"
    assert doc["summary"]["total"] == len(doc["checks"])
    ids = [c["id"] for c in doc["checks"]]
    assert ids == sorted(ids)


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "seed.json", BASE)
    r = run_cli("check", "--config", cfg, "--seed", "7", "--format", "structured")
    assert r.returncode == 0
    assert json.loads(r.stdout)["seed"] == 7


def test_out_flag_writes_file_not_stdout(tmp_path):
    # the file holds exactly the bytes the same run prints without --out
    cfg = write_config(tmp_path, "out.json", BASE)
    dest = tmp_path / "report"
    for fmt in ("text", "structured"):
        args = ("split", "--config", cfg, "--format", fmt)
        to_file = run_cli(*args, "--out", str(dest), text=False)
        to_stdout = run_cli(*args, text=False)
        assert to_file.returncode == to_stdout.returncode == 0
        assert to_file.stdout == to_file.stderr == to_stdout.stderr == b""
        assert dest.read_bytes() == to_stdout.stdout
    doc = json.loads(dest.read_text(encoding="utf-8"))
    assert doc["command"] == "split"
    assert doc["summary"]["failed"] == 0


def test_an_empty_out_key_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, "out.json", dict(BASE, samples=1, out=""))
    assert cli.main(["check", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", "premetric: error: out: expected a path\n")


def test_an_empty_out_flag_is_a_path_that_cannot_be_written(tmp_path, capsys):
    cfg = write_config(tmp_path, "out.json", dict(BASE, samples=1))
    assert cli.main(["check", "--config", cfg, "--out", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("premetric: error: cannot write report: ")
    assert err.count("\n") == 1


def test_suites_key_overrides_subcommand_default(tmp_path):
    cfg = write_config(tmp_path, "ov.json", dict(BASE, suites=["split"]))
    r = run_cli("check", "--config", cfg)
    assert r.returncode == 0
    assert "split-0000-F" in r.stdout
    assert "conservation-" not in r.stdout


def test_suite_precondition_failure_is_config_error(tmp_path):
    cfg = write_config(tmp_path, "pre.json", {"n": 3, "p": 1, "samples": 1})
    r = run_cli("reciprocity", "--config", cfg)
    assert r.returncode == 2
    assert r.stdout == ""


def test_text_and_structured_agree_on_outcome(tmp_path):
    cfg = write_config(tmp_path, "agree.json", dict(BASE, samples=2))
    text = run_cli("check", "--config", cfg)
    structured = run_cli("check", "--config", cfg, "--format", "structured")
    assert text.returncode == structured.returncode == 0
    doc = json.loads(structured.stdout)
    assert text.stdout.count("[PASS]") == doc["summary"]["passed"]


@pytest.mark.parametrize("command", ["check", "split", "constitutive",
                                     "reciprocity"])
def test_every_subcommand_is_wired(tmp_path, command):
    payload = dict(BASE, samples=1)
    if command == "constitutive":
        payload["metric"] = {"diagonal": [1, -1, -1, -1]}
        payload["constitutive"] = {"kind": "maxwell-lorentz", "Z0": 1}
    cfg = write_config(tmp_path, f"{command}.json", payload)
    r = run_cli(command, "--config", cfg)
    assert r.returncode == 0
    assert f"report: {command}" in r.stdout


def test_exponent_over_the_limit_exits_two_with_position(tmp_path):
    cfg = write_config(tmp_path, "exp.json",
                       dict(BASE, samples=1, F="(x0 + 1)^128*dx0^dx1"))
    r = run_cli("check", "--config", cfg)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "1:10: exponent 128 exceeds the limit 127" in r.stderr
    assert "Traceback" not in r.stderr


def test_product_exponent_overflow_exits_two(tmp_path):
    cfg = write_config(tmp_path, "overflow.json",
                       dict(BASE, samples=1, F="x0^100*x0^100*dx0^dx1"))
    r = run_cli("check", "--config", cfg)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "exponent exceeds the limit 127" in r.stderr
    assert "Traceback" not in r.stderr


def test_oversized_integer_literal_exits_two_with_position(tmp_path):
    cfg = write_config(tmp_path, "literal.json",
                       dict(BASE, samples=1, F="1" + "0" * 5000 + "*dx0^dx1"))
    r = run_cli("check", "--config", cfg)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "1:1: integer literal of 5001 digits exceeds the limit 4300" in r.stderr
    assert "Traceback" not in r.stderr


def test_unprintable_witness_coefficient_exits_two(tmp_path, capsys):
    # the axion-witness config with a coefficient squared past the printable
    # digit limit: the first FAIL witness cannot be printed as parseable text
    payload = json.loads((ROOT / "configs" / "axion-witness.json").read_text())
    payload["constitutive"]["alpha"] = "(" + "9" * 3000 + ")^2*x1"
    cfg = write_config(tmp_path, "big-witness.json", payload)
    assert cli.main(["constitutive", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("premetric: error: coefficient with more than 4300 digits")


def test_term_pair_limit_exits_two_quickly(tmp_path, capsys):
    cfg = write_config(tmp_path, "pairs.json", {
        "n": 8, "p": 1, "samples": 1,
        "F": "(x0+x1+x2+x3+x4+x5+x6+x7+1)^20*dx0"})
    start = time.monotonic()
    assert cli.main(["check", "--config", cfg]) == 2
    assert time.monotonic() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("premetric: error: F: 1:29: product of ")
    assert "term pairs" in err


@pytest.mark.parametrize("diagonal", [5, None, "1,-1"])
def test_non_list_metric_diagonal_exits_two(tmp_path, capsys, diagonal):
    cfg = write_config(tmp_path, "diag.json",
                       dict(BASE, samples=1, Z0=1, metric={"diagonal": diagonal}))
    assert cli.main(["reciprocity", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "premetric: error: metric.diagonal: expected a list of 4 rationals\n"


@pytest.mark.parametrize("key, message", [
    ("p", "p: expected an integer in 1..3"),
    ("orientation", "orientation: expected 1 or -1"),
    ("seed", "seed: expected an unsigned 64-bit integer"),
    ("degree_bound", "degree_bound: expected an integer in 0..6"),
    ("samples", "samples: expected an integer in 1..9999"),
])
def test_boolean_for_an_integer_key_exits_two(tmp_path, capsys, key, message):
    # JSON true/false are Python bools, an int subclass equal to 1 and 0
    for value in (True, False):
        cfg = write_config(tmp_path, "bool.json", {**BASE, "samples": 1, key: value})
        assert cli.main(["check", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"premetric: error: {message}\n"


@pytest.mark.parametrize("command, payload, message, key", [
    ("reciprocity", {"suites": ["factorization"], "constitutive": {
        "kind": "linear-local", "chi": [["x9"]]}},
     "1:1: index 9 out of range for n=4", "constitutive.chi[0][0]"),
    ("reciprocity", {"suites": ["factorization"], "constitutive": {
        "kind": "axion", "Z0": 1, "alpha": "(("}},
     "1:3: expected a coefficient or basis factor", "constitutive.alpha"),
    ("reciprocity", {"suites": ["factorization"], "constitutive": {
        "kind": "custom", "G": "dx0"}},
     "1:1: degree mismatch: term has degree 1, expected 2", "constitutive.G"),
    ("check", {"J": "dx0^^"}, "1:4: unexpected trailing input", "J"),
    ("reciprocity", {"suites": ["factorization"], "u": "dx9"},
     "1:1: index 9 out of range for n=4", "u"),
])
def test_input_no_selected_suite_reads_exits_two(tmp_path, capsys, command,
                                                 payload, message, key):
    # every expression and the law are read when the config is loaded
    cfg = write_config(tmp_path, "unread.json", {**BASE, "samples": 1, **payload})
    assert cli.main([command, "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"premetric: error: {key}: {message}\n"


def test_a_law_is_built_once_per_run(tmp_path, monkeypatch):
    build, calls = config.build_law, []

    def counted(*args):
        calls.append(args)
        return build(*args)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("premetric")
                and getattr(module, "build_law", None) is build):
            monkeypatch.setattr(module, "build_law", counted)
    cfg = write_config(tmp_path, "law.json", {**BASE, "samples": 1, "constitutive": {
        "kind": "maxwell-lorentz", "Z0": 1}})
    assert cli.main(["check", "--config", cfg]) == 0
    assert len(calls) == 1


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cfg = write_config(tmp_path, "reuse.json", dict(BASE, samples=1))
    out = tmp_path / "report.json"
    calls = [["check", "--config", cfg, "--seed", "7", "--format", "structured",
              "--out", str(out)],
             ["check", "--config", cfg, "--format", "yaml"],
             ["check", "--config", cfg]]

    def outcome(status, stdout, stderr):
        written = out.read_text(encoding="utf-8") if out.exists() else None
        out.unlink(missing_ok=True)
        return status, stdout, stderr, written

    in_sequence = []
    for argv in calls:
        try:
            status = cli.main(argv)
        except SystemExit as e:
            status = e.code
        in_sequence.append(outcome(status, *capsys.readouterr()))
    alone = []
    for argv in calls:
        r = run_cli(*argv)
        alone.append(outcome(r.returncode, r.stdout, r.stderr))
    assert in_sequence == alone
    assert [o[0] for o in alone] == [0, 2, 0]
    assert alone[0][3].startswith("{") and alone[0][1] == ""
    assert alone[2][1].startswith("report: check (seed 42)")


def test_float_orientation_exits_two(tmp_path, capsys):
    # -1.0 == -1, and a float orientation used to pass validation and end
    # in a traceback inside the Hodge star
    cfg = write_config(tmp_path, "orientation.json",
                       dict(BASE, samples=1, Z0=1, orientation=-1.0))
    assert cli.main(["reciprocity", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "premetric: error: orientation: expected 1 or -1\n"


def test_a_null_law_z0_defers_to_the_top_level_one(tmp_path, capsys):
    # an explicit null reads as absent, so the top-level Z0 applies
    outcomes = []
    for name, law, top in (("null", {"Z0": None}, {"Z0": 2}),
                           ("absent", {}, {"Z0": 2}),
                           ("neither", {"Z0": None}, {})):
        cfg = write_config(tmp_path, f"{name}.json", {
            **BASE, "samples": 1, **top,
            "constitutive": {"kind": "maxwell-lorentz", **law}})
        outcomes.append((cli.main(["constitutive", "--config", cfg]),
                         *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and "[PASS]" in outcomes[0][1]
    assert outcomes[2] == (2, "", "premetric: error: constitutive: metric-based "
                                  "laws need Z0\n")
