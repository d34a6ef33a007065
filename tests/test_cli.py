import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import jsonschema
import pytest

from schur_isotropy import Partition, chern, decide, isotropy
from schur_isotropy.cli import build_parser, run

from closed_forms import two_row_dimension

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


def test_a_dimension_past_the_int_print_limit_is_an_answer(capsys):
    # C(99999, 50000) has 30101 digits, past the 4300 that Python prints by
    # default; run lifts that limit, so the answer prints in full
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        code, envelope = run_json(capsys, ["dim", "--lambda", "50000", "--n", "50000"])
        if limit:  # run restores the limit, so lift it to spell the expected answer
            sys.set_int_max_str_digits(0)
        expected = str(comb(99999, 50000))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert code == 0
    assert envelope["result"]["dim"] == expected


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_run_leaves_the_int_print_limit_as_it_found_it(capsys):
    # run lifts the limit only for its command: after an answer, a domain
    # error or a usage error, the caller's limit is back, and the library's
    # decide still refuses to print a 60203-digit dimension in its detail line
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for argv, code in [
            (["dim", "--lambda", "2,1", "--n", "3"], 0),
            (["dim", "--lambda", "50000", "--n", "50000", "--json"], 0),
            (["decide", "--lambda", "2,1", "--k", "3", "--n", "2"], 1),
            (["decide", "--lambda", "2,1", "--k", "0", "--n", "6"], 2),
        ]:
            assert run(argv) == code, argv
            assert sys.get_int_max_str_digits() == 5000, argv
        capsys.readouterr()
        with pytest.raises(ValueError, match="limit"):
            decide(Partition((100000,)), 100000, 200000)
    finally:
        sys.set_int_max_str_digits(previous)


def test_decide_json_matches_published_shape(capsys):
    code, envelope = run_json(capsys, ["decide", "--lambda", "2,1", "--k", "3", "--n", "6"])
    assert code == 0
    result = envelope["result"]
    assert result["isotropic"] is True
    assert result["rule"] == "main-theorem"
    assert result["threshold_n"] == 6


def test_decide_answers_at_an_n_past_every_lane_width(capsys):
    # the k = 2 two-row rule answers n = 10^19 from the degree bound, n >= 3
    code, envelope = run_json(
        capsys, ["decide", "--lambda", "2,2", "--k", "2", "--n", str(10**19)]
    )
    assert code == 0
    assert envelope["result"]["isotropic"] is True
    assert envelope["result"]["rule"] == "oracle-fallback"


def test_the_k2_two_row_corner_answers_far_past_the_localization_cap(capsys):
    # dimension 1999 fits Gr(2, n) from n = 1002 on; a localization sum
    # there would be over its cost cap, and the degree bound needs none
    code, envelope = run_json(
        capsys, ["decide", "--lambda", "2000,2", "--k", "2", "--n", "2000"]
    )
    assert code == 0
    assert envelope["result"]["isotropic"] is True
    code, envelope = run_json(capsys, ["min-n", "--lambda", "2000,2", "--k", "2"])
    assert code == 0
    assert envelope["result"]["min_isotropic_n"] == 1002


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
    true_pass = chern._pass

    def zeroed_oracle(k, n, batch, *args):
        values = true_pass(k, n, batch, *args)
        if k == 2 and n == 3 and (1, 1) in values:
            values[(1, 1)] = 0
        return values

    monkeypatch.setattr(chern, "_pass", zeroed_oracle)
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


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the --json envelope of each HUMAN_OUTPUTS argv
JSON_DIGESTS = [
    "c1ce233a599e550bc99da93e325c24fea864e67af7c8c6cbfa672bbcc53a749c",
    "1b7f35153f8a87e660c446d99db51f904cb1b5eb9fb8a93d0a29279757979bdf",
    "d9e67794e1071755d82dcce89b42dc1fdc0ea2360a95d1765ed633e1314eaec8",
    "b02dce21ad2f603c29d07ca91afac2e5093176c68fc37b58aee7b2def03b235d",
    "c838121f4ab459ef8867ee6a201796f732d70ec1c1ff3c34404d71aec4772561",
    "634b6f49be8ed5cd3afd4980a53e40e34663271616131587cf42fcafb637a35c",
    "dc40a10c4c2d883e2cdfaf0c0cf1b093f104e6f392249f1e4a016ec9e4266116",
    "d02c9f9ccb16236ce6bab30f1bdd9a277a71dac6ffd751929340d0a586c090f7",
    "1b30d46085bfca8990ba49c470cfd347fd393ea5197132b95b12e5d68cab1e85",
]


@pytest.mark.parametrize(
    "argv, code, digest",
    [(argv, code, digest) for (argv, code, _), digest in zip(HUMAN_OUTPUTS, JSON_DIGESTS)],
)
def test_json_envelope_bytes_are_pinned(capsys, argv, code, digest):
    assert run(argv.split() + ["--json"]) == code
    assert sha256(capsys.readouterr().out) == digest


# (argv, sha256 of stdout): the program's help and each command's
HELP_OUTPUTS = [
    ("--help", "4db9cbc48a8eee862bc0a2bf3e50ff376ac65ad81738ae55ceb1b61e167c4209"),
    ("dim --help", "93eda716e1a838d0606f14f9aab898ebb57b7b6a4c3cce4053032d3782170a38"),
    ("decide --help", "6f967e32ecd875f2238a5cdf72dac24c504035cda5bbbd16a06dde8a5805a16c"),
    ("min-n --help", "3f5498e7d00f353488d3b2b443f3c2caa40603e9194978ce52e8c4de7ad50d74"),
    ("oracle --help", "a869be69d97a74768394c4ee84471c2b3784b24540d816d9a3a7ff2b16ba63f4"),
    ("check-lemma36 --help",
     "530e92d7af732fd231b4bfd7b585397d8e65f472dd7a99fa063704e007d5253f"),
    ("proof-chain --help",
     "8c4b52f4faa31d5e593896cd68270aeb35fdddacbe6f7d6e6458af5b8c945eac"),
    ("sweep --help", "f1403e53c19ad615fc17aac3b5dc2659fa239c39881847fd8ccc450fb163062b"),
    ("self-check --help",
     "dfe2d1c8d751e2b6111d194e3002c9e262088171be6704bc51df23ba37e993d0"),
]


@pytest.mark.parametrize("argv, digest", HELP_OUTPUTS)
def test_help_bytes_are_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    assert run(argv.split()) == 0
    captured = capsys.readouterr()
    assert (sha256(captured.out), captured.err) == (digest, "")


# (argv, exit code, sha256 of stderr): a usage error of the command name, and
# a usage error and a domain error for each argument type
ERROR_OUTPUTS = [
    (["no-such-command"], 2,
     "cf24280ded3a6ed33a0e814d6d757f4688bef2ac240ca605a195fc7a67bc7814"),
    (["dim", "--lambda", "1,2", "--n", "3"], 2,
     "b50c9bdb551606ce0dd896aca3baa4a2431a92de445ac437786cbd78ba52be69"),
    (["decide", "--lambda", "", "--k", "2", "--n", "4"], 1,
     "9d102d10bba03a3ec86f8c204bd98e897ed2a4c8731fcd9cdb27f1dab9a83588"),
    (["decide", "--lambda", "2,1", "--k", "0", "--n", "6"], 2,
     "7b4c25a638559cd5b7bd652d5ea18e65828b7c9edb1dbc743e3b175cbda41d84"),
    (["oracle", "--lambda", "1,1,1", "--k", "2", "--n", "5"], 1,
     "2d4cc51181497bea9628511f40aa0f6d7b57c1828caf50270004e1d4629e39be"),
    (["dim", "--lambda", "2,1", "--n", "-1"], 2,
     "52af847fe5fff6eb2bf8578cb13fb2260122d5245f5864ee7a084c5872b28916"),
    (["decide", "--lambda", "2,1", "--k", "3", "--n", "2"], 1,
     "bc859c9e7d6b5bef70f57a853a66963448ae305d3713ce043bdb1b3aad0e77be"),
    (["oracle", "--lambda", "2,1", "--k", "3", "--n", "6", "--max-tableaux", "0"], 2,
     "34132a780da73dedf7e7fc10e899a8dacc243c39e4bcd4e5894d5e9fb110c0eb"),
    (["oracle", "--lambda", "2,1", "--k", "3", "--n", "6", "--max-tableaux", "7"], 1,
     "365de8f355600fd8bc25637d4421c6c79e16af5616c4628bd95e2d1530c52c74"),
    (["sweep", "--max-size", "0"], 2,
     "e8369f4b3b34e1190e2c08b07872734667db83d1b443ab0871a00fa27c6974c9"),
    (["dim", "--lambda", "2,1", "--n", "z"], 2,
     "3c2f180e37b358e04c588bcab5129aa48164778d78889e3207a50d7bf1be2cd5"),
    (["decide", "--lambda", "2,1", "--k", "1.5", "--n", "6"], 2,
     "b0fe26c475c63c1af145861e9d2fd89ad1b8ada19389ced3681b415d240c5ed7"),
]


@pytest.mark.parametrize("argv, code, digest", ERROR_OUTPUTS)
def test_error_bytes_are_pinned(capsys, monkeypatch, argv, code, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    assert run(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, sha256(captured.err)) == ("", digest)


def test_help_and_usage_errors_do_not_depend_on_the_terminal_width(
    capsys, monkeypatch
):
    seen = set()
    for columns in ("60", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert run(["decide", "--help"]) == 0
        assert run(["decide", "--lambda", "2,1", "--k", "0", "--n", "6"]) == 2
        captured = capsys.readouterr()
        seen.add((captured.out, captured.err))
    assert len(seen) == 1


def test_a_non_integer_names_the_expected_integer(capsys):
    assert run(["dim", "--lambda", "2,1", "--n", "z"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --n: expected a nonnegative integer, got 'z'\n"
    )


@pytest.mark.parametrize("argv", [argv for argv, _, _ in HUMAN_OUTPUTS])
def test_the_module_run_as_a_script_prints_what_run_prints(capsys, argv):
    # the benchmark times each query as a fresh interpreter that runs the
    # module as __main__ through runpy
    code = run(argv.split())
    expected = capsys.readouterr().out
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import runpy; runpy.run_module('schur_isotropy.cli', run_name='__main__',"
        " alter_sys=True)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv.split()],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (code, expected)


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


def test_the_schema_commands_are_the_cli_commands():
    parser = build_parser()
    [commands] = [
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    branches = [branch["if"]["properties"]["command"]["const"] for branch in SCHEMA["allOf"]]
    assert SCHEMA["properties"]["command"]["enum"] == branches == list(commands)


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

    # n < k reaches the range checks of the proof chain and of Lemma 3.6
    for command in ("proof-chain", "check-lemma36"):
        assert run([command, "--lambda", "2,1", "--k", "3", "--n", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need "), command


def test_a_shape_over_a_million_boxes_exits_0_with_its_threshold(capsys):
    # (999999, 2) has 1000001 boxes; decide and min-n answer it at once
    dim = two_row_dimension(999999, 2, 2)
    assert run(["decide", "--lambda", "999999,2", "--k", "2", "--n", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "999999,2  2  5  false      oracle-fallback" in captured.out
    assert run(["min-n", "--lambda", "999999,2", "--k", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    threshold = str(2 + -(-dim // 2))
    assert captured.out.splitlines()[-1].split() == [
        "999999,2", "2", str(dim), threshold, threshold, "oracle-fallback"]


def _limit_memory():
    # the child's address space, so a guard that fails cannot fill memory
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, error", [
    ("check-lemma36 --lambda 2,1 --k 1000000000 --n 2000000000",
     "1000000001 interlacing rows exceed the cap 100000"),
    ("proof-chain --lambda 2,1 --k 1000000000 --n 2000000000",
     "999999998 descent steps exceed the cap 100000"),
    ("sweep --max-size 3 --max-k 3 --max-n 1000000000",
     "13999999969 sweep cases exceed the cap 100000"),
    pytest.param(f"dim --lambda {','.join(map(str, range(2000, 0, -1)))} --n 2000",
                 "2001000 steps of Weyl's product exceed the cap 1000000",
                 id="dim-staircase-of-2000-rows"),
])
def test_counted_work_over_its_cap_exits_1_at_once(argv, error):
    # each argv used to run without end; its rows, descent steps, cases or
    # steps of Weyl's product are counted and refused before any work, in a
    # child under a time and memory limit, so a missing guard fails the test
    # instead of the machine
    src = Path(__file__).resolve().parent.parent / "src"
    script = "import sys; from schur_isotropy.cli import main; main()"
    done = subprocess.run(
        [sys.executable, "-c", script, *argv.split()],
        env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=_limit_memory,
        capture_output=True, text=True, timeout=20,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {error}\n")


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
    # decide compiles them, and oracle compiles only the expansion
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
    assert _modules_after(
        "from schur_isotropy.cli import run; run(['oracle', '--lambda', '2,1',"
        " '--k', '3', '--n', '6'])", cold[2:],
    ).endswith("[]")


def test_the_package_imports_form_no_cycle():
    # every relative import of the package, at module level or in a function
    # body, as an edge from the importing module to the one it names
    package = Path(__file__).resolve().parent.parent / "src" / "schur_isotropy"
    graph = {}
    for path in package.glob("*.py"):
        edges = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                edges.update(names)

    def reached(start):
        seen, todo = set(), [start]
        while todo:
            for name in graph.get(todo.pop(), ()):
                if name not in seen:
                    seen.add(name)
                    todo.append(name)
        return seen

    assert "chern" in graph["isotropy"]  # read from "from . import chern"
    assert sorted(name for name in graph if name in reached(name)) == []


def test_the_two_oracle_routes_import_nothing_from_each_other():
    # the weight table and its zero-bundle guard live in schur beside the
    # dimension, the table's total; chern (localization) and sympoly (the
    # truncated expansion) both read them there
    package = Path(__file__).resolve().parent.parent / "src" / "schur_isotropy"
    trees = {name: ast.parse((package / f"{name}.py").read_text())
             for name in ("schur", "chern", "sympoly")}

    def defined(name):
        return {node.name for node in trees[name].body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    def imported(name):
        # (module, name) per relative import; (module, None) for "from . import module"
        return {
            (node.module, alias.name) if node.module else (alias.name, None)
            for node in ast.walk(trees[name])
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }

    table = {"weight_counts", "_refuse_zero_bundle"}
    assert table <= defined("schur")
    assert table & (defined("chern") | defined("sympoly")) == set()
    assert {name for module, name in imported("chern") if module == "partitions"} == {
        "Partition"
    }
    assert table <= {name for module, name in imported("chern") if module == "schur"}
    assert table <= {name for module, name in imported("sympoly") if module == "schur"}
    assert {module for module, _ in imported("chern")} & {"sympoly", "tableaux"} == set()
    assert "chern" not in {module for module, _ in imported("sympoly")}


def test_chern_holds_only_the_localization_route_and_imports_at_module_level():
    # the truncated expansion and its verdict type live in sympoly, so chern
    # defines neither and imports nothing inside a function body
    path = Path(__file__).resolve().parent.parent / "src" / "schur_isotropy" / "chern.py"
    tree = ast.parse(path.read_text())
    defined = {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"top_chern_nonzero", "ChernVerdict"} & defined == set()
    nested = [
        (function.name, node.lineno)
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []
