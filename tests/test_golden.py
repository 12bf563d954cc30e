"""Byte-for-byte golden outputs of the README command-line examples.

Each README example runs as written (q = 3), with ``--p 5`` and with
``--p 3 --r 2``, in text and json, plus ``selftest --profile quick``.
The stdout of every run is stored in ``tests/golden/<case>.out`` and its
exit code in ``tests/golden/exit_codes.json``; both were recorded before
the series product was replaced by the dense kernel, and any change to
them is a change of the program's output.

``tests/golden/relations-sweep-q{3,5,9}.json`` hold the full relation
sweep (r <= 5 and N <= 3 at q = 3 and 5, r <= 2 and N <= 1 at q = 9) as
``json.dumps(..., sort_keys=True, indent=1)``; they were recorded before
Matrix.rref became fraction-free.

``tests/golden/congruence-sweep-q{3,5}.json`` hold the witnesses of
``sweep_congruence(ctx, 7, (1, 2), 27)`` and
``tests/golden/residue-sweep-q{3,5}.json`` the reports of
``sweep_residues(ctx, 7, 27)``, in the same format; they were recorded
while both sweeps still multiplied shared generator powers themselves,
before each entry came from one ``check_congruence`` or
``build_residue_form`` call.

The ``expand-nonintegral-*`` cases expand forms whose u-expansions have
coefficients outside F_q[T] (user scalars with denominators, inverses,
the non-modular E), in the same three fields and two formats, and
``selftest-full`` holds ``selftest --profile full``; these were recorded
before series stored numerators over one common denominator.

The README examples also run over F_27 (``--p 3 --r 3``), and the
``expand-scalar-*`` cases expand two forms with coefficients outside F_p
(w, w^2 and factors T + w) over F_9, F_25 and F_27, so that every
coordinate plane of the field arithmetic reaches the output.  Their exit
codes are in ``tests/golden/exit_codes-extension-fields.json``; they were
recorded before every product of coordinate planes went through
``FieldCtx._plane_product``.
"""

import json
import os

import pytest

from drinfeldforms.cli import main
from drinfeldforms.congruence import sweep_congruence, sweep_residues
from drinfeldforms.fieldpoly import make_field
from drinfeldforms.forms import clear_form_cache
from drinfeldforms.relations import sweep_relations

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

EXAMPLES = (
    ("expand-E_T", ["expand", "E_T", "--prec", "10"]),
    ("expand-identity", ["expand", "Delta_W*Delta_T - E_T^2"]),
    ("dim", ["dim", "--k", "4", "--l", "1"]),
    ("basis", ["basis", "--k", "4", "--l", "1"]),
    ("congruence", ["congruence", "--k", "4", "--l", "1", "--d", "1",
                    "--b-max", "2"]),
    ("corollary", ["corollary", "--k", "12", "--l", "6", "--m", "1"]),
    ("relations", ["relations", "--k", "2", "--l", "1", "--N", "0"]),
    ("residue", ["residue", "--k", "4", "--l", "1", "--a", "0"]),
)
FIELDS = (("q3", []), ("q5", ["--p", "5"]), ("q9", ["--p", "3", "--r", "2"]))
Q25, Q27 = ("q25", ["--p", "5", "--r", "2"]), ("q27", ["--p", "3", "--r", "3"])
FORMATS = ("text", "json")

CASES = [(f"{name}-{field}-{fmt}", flags + ["--format", fmt] + argv)
         for name, argv in EXAMPLES
         for field, flags in FIELDS + (Q27,)
         for fmt in FORMATS]
NONINTEGRAL = ("1/T*E_T", "E_T/(T+1) - Delta_T/T^2", "(T*h)^-1",
               "(T^2+1)^-1*Delta_T^-2*E_T", "h^-2", "g1^-1/(T-1)",
               "E/(T^3+T)")
CASES += [(f"expand-nonintegral-{i}-{field}-{fmt}",
           flags + ["--format", fmt, "expand", expr])
          for i, expr in enumerate(NONINTEGRAL)
          for field, flags in FIELDS
          for fmt in FORMATS]
SCALAR = ("(w*T + 1)*E_T - w^2*Delta_T/(T + w)",
          "(T + w)^-1*h^-2 + w*g1^-1/(T - w)")
CASES += [(f"expand-scalar-{i}-{field}-{fmt}",
           flags + ["--format", fmt, "expand", expr, "--prec", "120"])
          for i, expr in enumerate(SCALAR)
          for field, flags in (FIELDS[2], Q25, Q27)
          for fmt in FORMATS]
CASES.append(("selftest-quick", ["selftest", "--profile", "quick"]))
CASES.append(("selftest-full", ["selftest", "--profile", "full"]))

# (field, p, r, r_max, n_max) of the relation sweeps
SWEEPS = (("q3", 3, 1, 5, 3), ("q5", 5, 1, 5, 3), ("q9", 3, 2, 2, 1))
# name -> the JSON payload of the acceptance sweep it records
THEOREM_SWEEPS = {
    "congruence-sweep": lambda ctx: [
        w.json_dict() for w in sweep_congruence(ctx, 7, (1, 2), 27)],
    "residue-sweep": lambda ctx: sweep_residues(ctx, 7, 27),
}


def run_case(argv, capsys):
    clear_form_cache()
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def exit_codes():
    out = {}
    for name in ("exit_codes.json", "exit_codes-extension-fields.json"):
        with open(os.path.join(GOLDEN, name)) as fh:
            out.update(json.load(fh))
    return out


def test_golden_case_list_is_complete(exit_codes):
    assert sorted(exit_codes) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,argv", CASES, ids=[n for n, _ in CASES])
def test_golden_output(name, argv, capsys, exit_codes):
    code, out = run_case(argv, capsys)
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8",
              newline="") as fh:
        expected = fh.read()
    assert code == exit_codes[name]
    assert out == expected


@pytest.mark.parametrize("field,p,r,r_max,n_max", SWEEPS,
                         ids=[sweep[0] for sweep in SWEEPS])
def test_golden_relation_sweep(field, p, r, r_max, n_max):
    clear_form_cache()
    out = json.dumps(sweep_relations(make_field(p, r), r_max, n_max),
                     sort_keys=True, indent=1)
    with open(os.path.join(GOLDEN, f"relations-sweep-{field}.json"),
              encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert out == expected


@pytest.mark.parametrize("name", sorted(THEOREM_SWEEPS))
@pytest.mark.parametrize("p", (3, 5), ids=("q3", "q5"))
def test_golden_theorem_sweep(name, p):
    clear_form_cache()
    out = json.dumps(THEOREM_SWEEPS[name](make_field(p, 1)),
                     sort_keys=True, indent=1)
    with open(os.path.join(GOLDEN, f"{name}-q{p}.json"), encoding="utf-8",
              newline="") as fh:
        expected = fh.read()
    assert out == expected
