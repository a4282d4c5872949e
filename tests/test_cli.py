"""Command-line interface: parsing, output formats, exit codes."""

import argparse
import csv
import json
import pathlib
import re
import subprocess
import sys

import pytest

from g0bound import verify
from g0bound.cli import _build_parser, main, parse_complex
from g0bound.errors import DomainError

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5 + 0j
    assert parse_complex("-2") == -2 + 0j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("2.5-0.75i") == 2.5 - 0.75j
    assert parse_complex("1e2+5e-1i") == 100 + 0.5j
    assert parse_complex("-1.5-2i") == -1.5 - 2j


def test_parse_complex_rejects():
    for bad in ("", "1 + 2i", "2i+1", "abc", "1+2j", "1++2i"):
        with pytest.raises(DomainError):
            parse_complex(bad)


def test_bound_json_round_trip(capsys):
    code, out, _ = run_cli(["bound", "--model", "bessel-i", "--nu", "0.5",
                            "--z", "1+2i", "--rho", "0.8", "--output",
                            "json"], capsys)
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert json.dumps(payload, sort_keys=True) == line
    assert payload["chain_ok"] is True
    assert payload["rho"] == 0.8
    assert payload["rho_policy"] == "given"
    assert payload["j_source"] == "quadrature"


def test_bound_csv(capsys):
    code, out, _ = run_cli(["bound", "--model", "toy-square", "--z", "1+1i",
                            "--rho", "0.75", "--output", "csv"], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header == ("J,bound,chain_ok,exponent_intermediate,exponent_thm,"
                      "j_source,lower,mid,model_id,rho,rho_policy,slack,z")
    # the dict-valued z is one JSON field, quoted with doubled quotes
    assert row.endswith(',"{""im"": 1.0, ""re"": 1.0}"')
    fields = next(csv.reader([row]))
    assert len(fields) == 13
    assert fields[8:11] == ["toy-square", "0.75", "given"]
    assert json.loads(fields[12]) == {"im": 1.0, "re": 1.0}


def test_bound_defaults_to_midpoint(capsys):
    code, out, _ = run_cli(["bound", "--model", "toy-square", "--z", "2",
                            "--output", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == 0.75
    assert payload["rho_policy"] == "midpoint"


def test_bound_opt_reports_rho_star(capsys):
    code, out, _ = run_cli(["bound", "--model", "bessel-i", "--nu", "0",
                            "--z", "1", "--rho", "opt", "--output", "json"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rho_policy"] == "optimized"
    assert payload["rho_star"] == payload["rho"]
    steps = payload["rho_star"] / 5e-4
    assert abs(steps - round(steps)) < 1e-9


def test_bound_text_output(capsys):
    code, out, _ = run_cli(["bound", "--model", "toy-square", "--z", "1+1i",
                            "--rho", "0.75"], capsys)
    assert code == 0
    assert "chain_ok     true" in out
    assert "J            11.6064778647" in out


def test_zeros_text_table(capsys):
    code, out, _ = run_cli(["zeros", "--model", "toy-square", "--count", "3"],
                           capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "z_n", "sum", "1/z_n"]
    assert lines[1].split() == ["1", "1.0000000000", "1.0000000000"]
    assert lines[3].split() == ["3", "9.0000000000", "1.3611111111"]


def test_zeros_json(capsys):
    code, out, _ = run_cli(["zeros", "--model", "toy-square", "--count", "4",
                            "--output", "json"], capsys)
    payload = json.loads(out)
    assert payload["zeros"] == [1.0, 4.0, 9.0, 16.0]
    assert payload["reciprocal_sums"][0] == 1.0


def test_zeros_k_order_grows_head(capsys):
    code, out, _ = run_cli(["zeros", "--model", "k-order", "--a", "1",
                            "--count", "10", "--output", "json"], capsys)
    assert code == 0
    assert len(json.loads(out)["zeros"]) == 10


def test_zeros_count_exceeds_head(capsys):
    code, _, err = run_cli(["zeros", "--model", "toy-square", "--head-count",
                            "5", "--count", "9"], capsys)
    assert code == 2
    assert "exposes 5 zeros" in err


def test_identity_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(["identity", "--model", "toy-square",
                            "--rho", "0.6,0.9"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("summary: total=")

    # a failing record exits 3
    with monkeypatch.context() as m:
        m.setitem(verify.TOLERANCES, "laplace_transform", 1e-300)
        code, out, _ = run_cli(["identity", "--model", "toy-square"], capsys)
    assert code == 3
    assert any(line.startswith("FAIL laplace_transform")
               for line in out.splitlines())

    # orders next to rho0 = 1/2 pass, down to 0.501
    code, out, _ = run_cli(["identity", "--model", "toy-square",
                            "--rho", "0.501"], capsys)
    assert code == 0
    assert "FAIL" not in out

    # a numeric failure exits 1: J(rho) diverges at rho = rho0
    code, _, err = run_cli(["bound", "--model", "toy-square", "--z", "1",
                            "--rho", "0.5"], capsys)
    assert code == 1
    assert "diverges" in err


def test_verify_jsonl_stream(capsys):
    argv = ["verify", "--model", "toy-square", "--seed", "5",
            "--radii", "1", "--angles", "0,0.5", "--rhos", "midpoint",
            "--output", "jsonl"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["total"] == len(lines) - 1
    assert summary["failed"] == 0
    rec = json.loads(lines[0])
    assert set(rec) == {"check_name", "model_id", "inputs", "lhs", "rhs",
                        "abs_error", "rel_error", "tolerance", "pass"}
    # deterministic across invocations
    code2, out2, _ = run_cli(argv, capsys)
    assert out2 == out


def test_verify_csv_stream(capsys):
    code, out, _ = run_cli(["verify", "--model", "toy-square",
                            "--radii", "1", "--angles", "0",
                            "--rhos", "midpoint", "--output", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("check_name,model_id,")


def test_verify_all_rejects_model_params(capsys):
    code, _, err = run_cli(["verify", "--model", "all", "--nu", "0.5"],
                           capsys)
    assert code == 2
    assert "--nu" in err


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(["bound", "--model", "toy-square", "--z", "oops"],
                           capsys)
    assert code == 2
    assert "cannot parse complex" in err

    code, _, err = run_cli(["bound", "--model", "toy-square", "--z", "1",
                            "--rho", "1.2"], capsys)
    assert code == 2

    # tolerances are fixed per check: --tol.<name> is not a flag
    for flag in ("--tol.laplace_transform=1", "--tol.nope=1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol." in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--model", "unknown-model"])
    assert exc.value.code == 2

    # the Airy model takes no cap: --z-max is not a flag
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--model", "airy-pair", "--z", "1", "--z-max", "30"])
    assert exc.value.code == 2
    assert "--z-max" in capsys.readouterr().err


def test_airy_pair_beyond_the_old_cap(capsys):
    code, out, _ = run_cli(["bound", "--model", "airy-pair",
                            "--z", "1000+100i"], capsys)
    assert code == 0
    assert "chain_ok     true" in out


def _strict_json(line):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(line, parse_constant=reject)


def test_bound_json_writes_null_for_an_overflowed_bound(capsys):
    # exp(exponent_thm) overflows at exponent 1,582: bound is null, the
    # exponent carries its log
    code, out, _ = run_cli(["bound", "--model", "airy-pair", "--z",
                            "1000+100i", "--output", "json"], capsys)
    assert code == 0
    payload = _strict_json(out)
    assert payload["bound"] is None
    assert payload["exponent_thm"] > 709.0
    assert payload["chain_ok"] is True


def test_verify_jsonl_writes_null_for_non_finite_values(capsys):
    code, out, _ = run_cli(["verify", "--model", "toy-square", "--radii",
                            "2000", "--angles", "0.3", "--output", "jsonl"],
                           capsys)
    assert code == 0
    lines = [_strict_json(line) for line in out.splitlines()]
    assert lines[-1]["summary"]["failed"] == 0
    upper = [r for r in lines[:-1] if r["check_name"] == "chain_upper"]
    assert upper and all(r["rhs"] is None for r in upper)


def _parser_flags():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = set(parser._option_string_actions)
    for p in sub.choices.values():
        flags |= set(p._option_string_actions)
    return flags


def test_readme_flags_are_parser_flags():
    # from the model table on; Install and Tests name pip and pytest flags
    text = README.read_text().split("\n## Models", 1)[1]
    named = {m.split("=")[0]
             for m in re.findall(r"(?<![\w-])--[A-Za-z][\w.=-]*", text)}
    assert {"--model", "--z", "--rho", "--radii", "--count"} <= named
    assert named <= _parser_flags()


def test_timing_goes_to_stderr(capsys):
    _, out, err = run_cli(["zeros", "--model", "toy-square", "--count", "1"],
                          capsys)
    assert "elapsed" in err
    assert "elapsed" not in out


def test_module_entry_point():
    p = subprocess.run([sys.executable, "-m", "g0bound", "zeros", "--model",
                        "toy-square", "--count", "2", "--output", "json"],
                       capture_output=True, text=True)
    assert p.returncode == 0
    assert json.loads(p.stdout)["zeros"] == [1.0, 4.0]
