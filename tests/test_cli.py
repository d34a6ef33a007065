import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from schur_isotropy import chern, isotropy
from schur_isotropy.cli import run

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "output.schema.json").read_text()
)


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    captured = capsys.readouterr()
    envelope = json.loads(captured.out)
    jsonschema.validate(envelope, SCHEMA)
    return code, envelope


def test_dim_json(capsys):
    code, envelope = run_json(capsys, ["dim", "--lambda", "2,1", "--n", "3"])
    assert code == 0
    assert envelope["command"] == "dim"
    assert envelope["result"] == {"lambda": [2, 1], "n": 3, "dim": "8"}
    assert envelope["timing_ms"] == 0


def test_decide_json_matches_published_shape(capsys):
    code, envelope = run_json(capsys, ["decide", "--lambda", "2,1", "--k", "3", "--n", "6"])
    assert code == 0
    result = envelope["result"]
    assert result["isotropic"] is True
    assert result["rule"] == "main-theorem"
    assert result["threshold_n"] == 6


def test_decide_json_omits_threshold_for_k_rules(capsys):
    code, envelope = run_json(
        capsys, ["decide", "--lambda", "1,1,1", "--k", "5", "--n", "7"]
    )
    assert code == 0
    result = envelope["result"]
    assert result["isotropic"] is False
    assert result["rule"] == "exception-skew-3-n7"
    assert "threshold_n" not in result


def test_oracle_json(capsys):
    code, envelope = run_json(
        capsys, ["oracle", "--lambda", "1,1,1", "--k", "5", "--n", "7"]
    )
    assert code == 0
    result = envelope["result"]
    assert result == {
        "nonzero": False,
        "degree": "10",
        "shortcut": "none",
        "surviving": [],
    }


def test_oracle_json_survivors(capsys):
    code, envelope = run_json(
        capsys, ["oracle", "--lambda", "2,1", "--k", "3", "--n", "6"]
    )
    assert code == 0
    assert envelope["result"]["surviving"] == [{"mu": [3, 3, 2], "coeff": "105"}]


def test_min_n_json(capsys):
    code, envelope = run_json(capsys, ["min-n", "--lambda", "2,1", "--k", "3"])
    assert code == 0
    result = envelope["result"]
    assert result["threshold_n"] == 6
    assert result["min_isotropic_n"] == 6
    assert result["rule_at_min_n"] == "main-theorem"
    assert result["dim"] == "8"


def test_min_n_trivial_shape(capsys):
    code, envelope = run_json(capsys, ["min-n", "--lambda", "2,2,2", "--k", "2"])
    assert code == 0
    result = envelope["result"]
    assert "threshold_n" not in result
    assert result["min_isotropic_n"] == 2
    assert result["rule_at_min_n"] == "trivial-zero-module"


def test_check_lemma36_json(capsys):
    code, envelope = run_json(
        capsys, ["check-lemma36", "--lambda", "2,1", "--k", "3", "--n", "6"]
    )
    assert code == 0
    result = envelope["result"]
    assert result["all_hold"] is True
    assert result["rows"][0] == {"i": 0, "lhs": "8", "rhs": "9", "holds": True}
    assert len(result["rows"]) == 4


def test_proof_chain_json(capsys):
    code, envelope = run_json(
        capsys, ["proof-chain", "--lambda", "2,1", "--k", "3", "--n", "6"]
    )
    assert code == 0
    assert envelope["result"]["all_verified"] is True
    assert envelope["result"]["steps"][0]["name"] == "hypothesis"


def test_self_check_json(capsys):
    code, envelope = run_json(capsys, ["self-check"])
    assert code == 0
    result = envelope["result"]
    assert result["ok"] is True
    names = [suite["name"] for suite in result["suites"]]
    assert "dimension-triple-agreement" in names
    assert all(suite["violations"] == 0 for suite in result["suites"])


def test_sweep_json_small_grid_agrees(capsys):
    # size-1 grid: only the linear shape, where rule and oracle always agree
    code, envelope = run_json(
        capsys,
        ["sweep", "--max-size", "1", "--max-k", "3", "--max-n", "5", "--with-oracle"],
    )
    assert code == 0
    result = envelope["result"]
    assert result["disagreements"] == 0
    assert result["total"] == result["compared"] > 0


def test_sweep_exit_code_on_disagreement(capsys, monkeypatch):
    # zero the sweep's oracle at a single case; the sweep must report that
    # one disagreement through the dedicated exit code
    true_oracle = chern.localization_integrals

    def zeroed_oracle(runs, k, *args, **kwargs):
        values = true_oracle(runs, k, *args, **kwargs)
        if k == 2 and 3 in values.get((1, 1), {}):
            values[(1, 1)][3] = 0
        return values

    monkeypatch.setattr(chern, "localization_integrals", zeroed_oracle)
    code, envelope = run_json(
        capsys,
        ["sweep", "--max-size", "2", "--max-k", "2", "--max-n", "4", "--with-oracle"],
    )
    assert code == 3
    result = envelope["result"]
    assert result["disagreements"] == 1
    bad = [case for case in result["cases"] if case["agree"] is False]
    assert bad == [
        {
            "lambda": [1, 1], "k": 2, "n": 3, "isotropic": True,
            "rule": "exception-skew-degree-2", "oracle_nonzero": False, "agree": False,
        }
    ]


# (argv, exit code, sha256 of the human-format stdout), one per command
HUMAN_OUTPUTS = [
    ("dim --lambda 2,1 --n 3", 0,
     "8df375e209a2baf991d33ebbb5178cb36a104079b287f9084e86e9245bc4752f"),
    ("decide --lambda 2,1 --k 3 --n 6", 0,
     "004b6ccd9b56004613969684f95c8e9edd3a3d3ca707545afa34b516a4d91522"),
    ("decide --lambda 50,2 --k 2 --n 30", 0,
     "a71209b4724343297cd91321ea1769b124ddbda245f269ad016f4cd42d260661"),
    ("min-n --lambda 2,2 --k 3", 0,
     "e9bef896f75b462ef9a1a7a932341f1c9ecdfeb63dd4f1e2df21d0b8703f46bf"),
    ("oracle --lambda 2,1 --k 3 --n 6", 0,
     "81d1c7b80be71a63192301011f69dfb6dfaff5889d58bc4028ba0977f3df64b8"),
    ("check-lemma36 --lambda 2,1 --k 3 --n 6", 0,
     "1197476b375a9c907f25bd26f8020332514b657ec1e4388a32e7a37abab4cc57"),
    ("proof-chain --lambda 2,1 --k 3 --n 6", 0,
     "e4a04c53d6dbaa41a0479bc9f1f2d1f3667f24e598410191cd9163fe2820efa3"),
    ("sweep --max-size 3 --max-k 3 --max-n 6 --with-oracle", 0,
     "69e1fe152039d40f9f120fe663482ec0821f19b92edeeae3cfabba2b45949460"),
    ("self-check", 0,
     "b96f7eddf95884c471ab3138daa5f3f8aeffccba4ac42c00d0290e70016a506b"),
]


@pytest.mark.parametrize("argv, code, digest", HUMAN_OUTPUTS)
def test_human_output_bytes_are_pinned(capsys, argv, code, digest):
    assert run(argv.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sweep_json_inputs_are_its_arguments(capsys):
    code, envelope = run_json(capsys, ["sweep", "--max-size", "2", "--max-n", "3"])
    assert code == 0
    assert envelope["inputs"] == {
        "max_size": 2, "max_k": 5, "max_n": 3, "with_oracle": False,
    }


def test_sweep_has_no_enumeration_cap_flag(capsys):
    # the sweep runs the oracle only where the class degree, the number of
    # fillings, is at most 40, so no enumeration cap could bind there
    assert run(["sweep", "--max-tableaux", "5"]) == 2
    assert "--max-tableaux" in capsys.readouterr().err


def test_the_schema_rules_are_the_code_rules():
    rules = {
        value for name, value in vars(isotropy).items() if name.startswith("RULE_")
    }
    assert set(SCHEMA["definitions"]["rule"]["enum"]) == rules


def test_usage_errors_exit_2(capsys):
    assert run(["dim", "--lambda", "0"]) == 2
    capsys.readouterr()
    assert run(["decide", "--lambda", "2,1", "--k", "3"]) == 2
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["dim", "--lambda", "1,2", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert "increase" in err


def test_domain_errors_exit_1(capsys):
    assert run(["decide", "--lambda", "", "--k", "2", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err

    assert run(["oracle", "--lambda", "1,1,1", "--k", "2", "--n", "5"]) == 1
    assert run(["decide", "--lambda", "2,1", "--k", "3", "--n", "2"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_byte_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = run(["decide", "--lambda", "2,2", "--k", "4", "--n", "9", "--json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    outputs = []
    for _ in range(2):
        run(["self-check"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_human_tables(capsys):
    assert run(["decide", "--lambda", "2,1", "--k", "3", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "main-theorem" in out
    assert "lambda" in out

    assert run(["dim", "--lambda", "2,1", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "8" in out


def test_timing_flag_reports_measured_time(capsys):
    code = run(["dim", "--lambda", "2,1", "--n", "3", "--json", "--timing"])
    assert code == 0
    envelope = json.loads(capsys.readouterr().out)
    assert isinstance(envelope["timing_ms"], int)
    assert envelope["timing_ms"] >= 0


def test_enumeration_cap_flag(capsys):
    code = run(
        ["oracle", "--lambda", "2,1", "--k", "3", "--n", "6",
         "--max-tableaux", "7"]
    )
    assert code == 1
    assert "cap" in capsys.readouterr().err


def _modules_after(statement, modules):
    """Which of ``modules`` a fresh interpreter holds after ``statement``."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = f"import sys; {statement}; print(sorted({set(modules)!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout.strip()


def test_the_cli_import_leaves_dataclasses_out():
    # dataclasses (and the inspect module it pulls in) cost about 10 ms at
    # every CLI start
    assert _modules_after("import schur_isotropy.cli", ["dataclasses", "inspect"]) == "[]"


def test_the_cli_import_leaves_fractions_and_json_out():
    # fractions (with decimal and numbers) and json load only where a
    # Fraction is built or a JSON envelope printed
    slow = ["fractions", "decimal", "numbers", "json"]
    assert _modules_after("import schur_isotropy.cli", slow) == "[]"
    assert _modules_after(
        "from schur_isotropy.cli import run; run(['decide', '--lambda', '2,1',"
        " '--k', '3', '--n', '6'])", slow,
    ).endswith("[]")
    assert _modules_after(
        "from schur_isotropy.cli import run; run(['dim', '--lambda', '2,1',"
        " '--n', '3', '--json'])", ["json"],
    ).endswith("['json']")


def test_the_package_import_and_the_sweep_leave_the_cold_modules_out():
    # the verification layer, the filling walk and the expansion load on
    # first use, so neither the import, a sweep nor the k = 2 fallback of
    # decide compiles them
    cold = [f"schur_isotropy.{name}" for name in ("proofs", "sympoly", "tableaux")]
    assert _modules_after("import schur_isotropy", cold) == "[]"
    assert _modules_after(
        "from schur_isotropy import run_sweep; run_sweep(4, 4, 8, with_oracle=True)",
        cold,
    ) == "[]"
    assert _modules_after(
        "from schur_isotropy import decide; decide((50, 2), 2, 30)", cold
    ) == "[]"
    assert _modules_after(
        "from schur_isotropy.cli import run; run(['dim', '--lambda', '2,1',"
        " '--n', '3'])", cold[1:],
    ).endswith("[]")
    assert _modules_after(
        "import schur_isotropy; schur_isotropy.count_ssyt", cold
    ) == "['schur_isotropy.tableaux']"
