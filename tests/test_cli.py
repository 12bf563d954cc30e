import json
import os
import subprocess
import sys

import jsonschema
import pytest

from drinfeldforms.cli import main

SERIES_SCHEMA = {
    "type": "object",
    "required": ["val", "prec", "terms"],
    "additionalProperties": False,
    "properties": {
        "val": {"type": "integer"},
        "prec": {"type": "integer"},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["exp", "coeff"],
                "additionalProperties": False,
                "properties": {
                    "exp": {"type": "integer"},
                    "coeff": {"type": "string"},
                },
            },
        },
    },
}

WITNESS_SCHEMA = {
    "type": "object",
    "required": ["q", "k", "l", "d", "a", "b", "form", "exp", "coeff",
                 "modulus", "residue", "verdict"],
    "additionalProperties": False,
    "properties": {
        "q": {"type": "integer"},
        "k": {"type": "integer"},
        "l": {"type": "integer"},
        "d": {"type": "integer"},
        "a": {"type": "integer"},
        "b": {"type": "integer"},
        "form": {"type": "string"},
        "exp": {"type": "integer"},
        "coeff": {"type": "string"},
        "modulus": {"type": "string"},
        "residue": {"type": "string"},
        "verdict": {"enum": ["CongruentZero", "ExactZero", "Fail"]},
    },
}

RELATION_ROW_SCHEMA = {
    "type": "object",
    "required": ["q", "k", "l", "N", "basis_g", "b"],
    "properties": {
        "q": {"type": "integer"},
        "k": {"type": "integer"},
        "l": {"type": "integer"},
        "N": {"type": "integer"},
        "basis_g": {"type": "string"},
        "b": {"type": "array", "items": {"type": "string"}},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["phi_rank", "kernel_dim", "spans_equal"],
    "properties": {
        "phi_rank": {"type": "integer"},
        "kernel_dim": {"type": "integer"},
        "spans_equal": {"type": "boolean"},
    },
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*argv):
    """``python -m drinfeldforms argv`` in a fresh interpreter, killed
    after 60 s so that a hang fails the test."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "drinfeldforms", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=env)


# ---------------------------------------------------------------------------
# expand


def test_expand_text(capsys):
    code, out, _ = run(capsys, ["expand", "--p", "3", "--r", "1", "E_T",
                                "--prec", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert "u^1: 1" in lines
    assert "u^3: 2*T" in lines


def test_expand_identity_is_zero(capsys):
    code, out, _ = run(capsys, ["expand", "Delta_W*Delta_T - E_T^2",
                                "--p", "3", "--r", "1", "--prec", "30"])
    assert code == 0
    assert "0 + O(u^30)" in out


def test_expand_json_schema(capsys):
    code, out, _ = run(capsys, ["--format", "json", "expand", "E_T",
                                "--prec", "10"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SERIES_SCHEMA)
    exps = [t["exp"] for t in payload["terms"]]
    assert exps == sorted(exps)


def test_expand_malformed_exits_2(capsys):
    code, _, err = run(capsys, ["expand", "Delta_Q + ("])
    assert code == 2
    assert "error" in err


def test_expand_truncated_reports_end_of_expression(capsys):
    code, out, err = run(capsys, ["expand", "E_T +"])
    assert code == 2 and out == ""
    assert err == "error: unexpected end of expression\n"


@pytest.mark.parametrize("depth", [250, 3000])
def test_expand_deep_nesting_exits_2(capsys, depth):
    expr = "(" * depth + "E_T" + ")" * depth
    code, out, err = run(capsys, ["expand", expr, "--prec", "10"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("prec", ["0", "-5"])
def test_expand_bad_prec_exit_2(capsys, prec):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "E_T", "--prec", prec])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--prec" in out.err


def test_jobs_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", "dim", "--k", "4", "--l", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# dim and basis


def test_dim_and_basis(capsys):
    code, out, _ = run(capsys, ["dim", "--k", "4", "--l", "1"])
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, ["basis", "--k", "4", "--l", "1"])
    assert code == 0
    assert out.strip().splitlines() == ["Delta_W*E_T", "Delta_T*E_T"]
    code, out, _ = run(capsys, ["--p", "3", "--r", "2", "dim",
                                "--k", "12", "--l", "6"])
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("k,l,message", (
    ("4", "5", "type l = 5 outside [0, 1]"),
    ("4", "-1", "type l = -1 outside [0, 1]"),
    ("-1", "0", "weight k = -1 is negative"),
), ids=("l-above", "l-negative", "k-negative"))
def test_dim_refuses_what_basis_refuses(capsys, k, l, message):
    # types are classes mod q - 1, so a dimension of 0 for l = 5 at q = 3
    # would be wrong: dim exits 2 with basis's message
    for command in ("dim", "basis"):
        code, out, err = run(capsys, [command, "--k", k, "--l", l])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_dim_of_a_weight_not_congruent_to_2l_is_0(capsys):
    code, out, _ = run(capsys, ["dim", "--k", "3", "--l", "1"])
    assert code == 0 and out == "0\n"


# ---------------------------------------------------------------------------
# congruence and corollary


def test_congruence_exit_0_and_json(capsys):
    code, out, _ = run(capsys, ["--format", "json", "congruence",
                                "--k", "4", "--l", "1", "--d", "1",
                                "--b-max", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    for w in payload["witnesses"]:
        jsonschema.validate(w, WITNESS_SCHEMA)
    verdicts = {(w["a"], w["verdict"]) for w in payload["witnesses"]}
    assert (0, "ExactZero") in verdicts


def test_congruence_bad_parity_exit_2(capsys):
    code, _, err = run(capsys, ["congruence", "--k", "3", "--l", "1",
                                "--d", "1"])
    assert code == 2
    assert "congruent" in err and "mod" in err


def test_corollary_q9_example(capsys):
    code, out, _ = run(capsys, ["--p", "3", "--r", "2", "corollary",
                                "--k", "12", "--l", "6", "--m", "1"])
    assert code == 0
    assert "residue=0" in out


def test_corollary_m_0_at_l_0_blames_m(capsys):
    # no alpha was given: its default for l = 0 is at least 1, so the
    # error names the m that the user did give
    code, out, err = run(capsys, ["corollary", "--k", "2", "--l", "0",
                                  "--m", "0"])
    assert code == 2
    assert out == ""
    assert "m = 0 is not in [1, alpha = 1]" in err
    assert "alpha = 0" not in err


def test_relations_worked_example(capsys):
    code, out, _ = run(capsys, ["--format", "json", "relations",
                                "--k", "2", "--l", "1", "--N", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"][0]["b"] == ["2*T", "2"]
    for row in payload["phi"]:
        jsonschema.validate(row, RELATION_ROW_SCHEMA)
    jsonschema.validate(payload["report"], REPORT_SCHEMA)
    assert payload["report"]["spans_equal"] is True
    assert payload["report"]["phi_rank"] == 1


def test_relations_negative_N_exit_2(capsys):
    code, _, err = run(capsys, ["relations", "--k", "2", "--l", "1",
                                "--N", "-1"])
    assert code == 2


@pytest.mark.parametrize("before", (True, False), ids=("before", "after"))
@pytest.mark.parametrize("argv", (
    ["dim", "--k", "4", "--l", "1"],
    ["basis", "--k", "4", "--l", "1"],
    ["corollary", "--k", "2", "--l", "0", "--m", "1"],
    ["relations", "--k", "2", "--l", "1", "--N", "0"],
    ["selftest", "--profile", "quick"],
), ids=lambda argv: argv[0])
def test_prec_on_a_command_without_it_exits_2(capsys, argv, before):
    # --prec is read only by expand, congruence and residue; anywhere else
    # it is refused rather than ignored
    argv = ["--prec", "1"] + argv if before else argv + ["--prec", "1"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "--prec" in err


def test_residue_command(capsys):
    code, out, _ = run(capsys, ["residue", "--k", "4", "--l", "1",
                                "--a", "0"])
    assert code == 0
    assert all(line.endswith("residue=0")
               for line in out.strip().splitlines())


def test_residue_negative_a_exits_2_without_hanging():
    # r + 2 + a = 0 here; the bad pair must be rejected, not searched
    proc = run_module("residue", "--k", "4", "--l", "1", "--a", "-3")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_too_large_prime_exits_2_without_hanging():
    # p >= 2^31 is refused before any trial division runs
    proc = run_module("dim", "--k", "2", "--l", "0",
                      "--p", "1000000000000000003")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "2^31" in proc.stderr


def test_huge_power_of_a_form_is_immediate():
    # E_T^N takes about log2(N) expression products, not N - 1
    proc = run_module("expand", "E_T^100000000", "--prec", "10")
    assert proc.returncode == 0
    assert proc.stdout == ("q=3 expr=E_T^100000000 val=9 prec=10\n"
                           "0 + O(u^10)\n")


def test_residue_precision_error_exit_3(capsys):
    code, _, err = run(capsys, ["--prec", "1", "residue", "--k", "4",
                                "--l", "1", "--a", "0"])
    assert code == 3
    assert "precision" in err


def test_bad_field_exit_2(capsys):
    code, _, err = run(capsys, ["--p", "2", "dim", "--k", "4", "--l", "1"])
    assert code == 2


def test_out_of_memory_exits_4(capsys, monkeypatch):
    # exhaustion is not a failed check (1): one line on stderr, code 4;
    # cli.expand is patched because the cached parser holds cmd_expand
    from drinfeldforms import cli

    def exhausted(*args):
        raise MemoryError("Unable to allocate 512. MiB")

    monkeypatch.setattr(cli, "expand", exhausted)
    code, out, err = run(capsys, ["expand", "g1", "--prec", "5000"])
    assert code == 4 and out == ""
    assert err == "error: out of memory; the request is too large\n"


# ---------------------------------------------------------------------------
# determinism


def test_repeated_runs_byte_identical(capsys):
    argv = ["--format", "json", "congruence", "--k", "6", "--l", "1",
            "--d", "2", "--b-max", "3"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    argv = ["--format", "json", "relations", "--k", "4", "--l", "0",
            "--N", "1"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch):
    # main builds its parser on the first call and reuses it; a usage
    # error between two valid calls must leave no state behind, so every
    # call prints and exits as it does with a parser of its own
    from drinfeldforms import cli
    calls = (["--format", "json", "dim", "--k", "4", "--l", "1"],
             ["dim", "--k", "4"],
             ["dim", "--k", "4", "--l", "1"],
             ["--p", "5", "basis", "--k", "8", "--l", "0"],
             ["expand", "E_T", "--prec", "-1"],
             ["basis", "--k", "4", "--l", "1", "--format", "json"],
             ["--p", "3", "--r", "2", "dim", "--k", "10", "--l", "1"])

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out

    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [outcome(argv) for argv in calls]
    parser = cli._PARSER
    assert parser is not None
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 2, 0, 0, 2, 0, 0]
    assert reused[0][1] != reused[2][1]  # no --format json left over
    # the reused run really shared one parser
    monkeypatch.setattr(cli, "_PARSER", parser)
    assert outcome(calls[0]) == reused[0] and cli._PARSER is parser
