"""Command-line interface: parsing, output formats, exit codes."""

import csv
import json
import subprocess
import sys

import pytest

from g0bound.cli import main, parse_complex
from g0bound.errors import DomainError


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


def test_identity_exit_codes(capsys):
    code, out, _ = run_cli(["identity", "--model", "toy-square",
                            "--rho", "0.6,0.9"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("summary: total=")

    code, out, _ = run_cli(["identity", "--model", "toy-square",
                            "--tol.laplace_transform=1e-300"], capsys)
    assert code == 3
    assert any(line.startswith("FAIL laplace_transform")
               for line in out.splitlines())

    # valid orders next to rho0 = 1/2: 0.52 passes, 0.501 is a numeric
    # failure (the Mellin head substitution underflows), not a usage error
    code, _, _ = run_cli(["identity", "--model", "toy-square",
                          "--rho", "0.52"], capsys)
    assert code == 0
    code, _, err = run_cli(["identity", "--model", "toy-square",
                            "--rho", "0.501"], capsys)
    assert code == 1
    assert "underflows" in err


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

    code, _, err = run_cli(["verify", "--tol.nope=1"], capsys)
    assert code == 2
    assert "unknown tolerance" in err

    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--model", "unknown-model"])
    assert exc.value.code == 2


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
