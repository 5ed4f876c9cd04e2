"""Command line interface: output shapes and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twisthom.cli import (
    EXIT_CAP,
    EXIT_DEGREE,
    EXIT_NONZERO,
    EXIT_NOT_A_CYCLE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_text(capsys):
    code, out, _ = invoke(capsys, "homology", "Z^3 x Z_3", "6")
    assert code == EXIT_OK
    assert out == "H_6(Z x Z x Z x Z_3; Z) = Z_3^4\n"


def test_homology_generators(capsys):
    code, out, _ = invoke(capsys, "homology", "Z_3", "3", "--generators")
    assert code == EXIT_OK
    assert "H_3(Z_3; Z) = Z_3" in out
    assert "generator 1 (order 3): [3]" in out


def test_homology_json(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "homology", "Z^3 x Z_3", "6")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert sorted(payload) == [
        "command", "degree", "examples", "group", "presentation", "verdict", "witness",
    ]
    assert payload["command"] == "homology"
    assert payload["group"] == "Z x Z x Z x Z_3"
    assert payload["degree"] == "6"
    assert payload["presentation"] == "Z_3^4"
    assert payload["verdict"] is None


def test_homology_generators_json(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "homology", "Z_3", "3", "--generators")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["witness"] == [{"order": "3", "cycle": "[3]"}]
    # Torsion generators come first; a free one has order 0.
    code, out, _ = invoke(capsys, "--format", "json", "homology", "Z x Z_3", "1", "--generators")
    assert code == EXIT_OK
    assert json.loads(out)["witness"] == [{"order": "3", "cycle": "[0 1]"},
                                          {"order": "0", "cycle": "[1 0]"}]


def test_chi_nonzero(capsys):
    code, out, _ = invoke(capsys, "chi", "Z^3 x Z_3", "3", "[1 1 1 0]+[0 0 0 3]")
    assert code == EXIT_NONZERO
    assert "order: 3" in out
    assert "TC(M) = 6 = cat(C(M))" in out


def test_chi_zero_low_degree(capsys):
    code, out, _ = invoke(capsys, "chi", "Z^3", "1", "[1 0 0]")
    assert code == EXIT_OK
    assert "order: 1 (zero class)" in out
    assert "(no topological reading below degree 2)" in out


def test_chi_json(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json", "chi", "Z^3 x Z_3", "3", "[1 1 1 0]+[0 0 0 3]"
    )
    assert code == EXIT_NONZERO
    payload = json.loads(out)
    assert payload["verdict"] == "nonzero"
    assert payload["witness"]["order"] == "3"
    assert payload["witness"]["class"].count("mod 3") == 4


def test_chi_rejects_non_cycles(capsys):
    code, _, err = invoke(capsys, "chi", "Z_3", "4", "[4]")
    assert code == EXIT_NOT_A_CYCLE
    assert "nonzero boundary" in err


def test_chi_degree_mismatch(capsys):
    code, _, err = invoke(capsys, "chi", "Z_3", "3", "[4]")
    assert code == EXIT_USAGE
    assert "degree 4" in err


def test_chi_bad_chain_syntax(capsys):
    code, _, err = invoke(capsys, "chi", "Z_3", "1", "[1")
    assert code == EXIT_USAGE
    assert "bad chain syntax" in err


def test_scan_witness(capsys):
    code, out, _ = invoke(capsys, "scan", "Z^4", "2")
    assert code == EXIT_NONZERO
    assert "theorem cover: NotCovered" in out
    assert "vanishing decision: NonzeroWitness(order infinite)" in out
    assert "witness cycle: [0 0 1 1] + [1 1 0 0]" in out
    assert "chi chain: 2*[1 1 1 1] (class order infinite)" in out


def test_scan_pairs_line(capsys):
    _, out, _ = invoke(capsys, "scan", "Z^4", "2")
    assert ("  pairs: 6 generators; 1 formed, 10 skipped (free overlap), 0 skipped (degree), "
            "0 skipped (orbit); failed at pair (0, 5) in block [1 1 1 1]\n") in out
    _, out, _ = invoke(capsys, "scan", "Z^3", "3")
    assert ("  pairs: 1 generators; 0 formed, 1 skipped (free overlap), 0 skipped (degree), "
            "0 skipped (orbit)\n") in out
    _, out, _ = invoke(capsys, "scan", "Z_2 x Z_2 x Z_2", "3")
    assert ("  pairs: 7 generators; 5 formed, 0 skipped (free overlap), 10 skipped (degree), "
            "13 skipped (orbit)\n") in out


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("group, degree", [("Z^4", "2"), ("Z^3 x Z_3", "3")])
def test_scan_witness_under_optimize(group, degree):
    # The checks inside the pipeline must not be asserts that -O strips.
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    runs = [subprocess.run([sys.executable, *flags, "-m", "twisthom.cli", "scan", group, degree],
                           capture_output=True, text=True, env=env, timeout=120)
            for flags in ((), ("-O",))]
    assert [r.returncode for r in runs] == [EXIT_NONZERO, EXIT_NONZERO]
    witness = [[line for line in r.stdout.splitlines() if "witness cycle:" in line] for r in runs]
    assert len(witness[0]) == 1
    assert witness[1] == witness[0]


def test_scan_vanishing(capsys):
    code, out, _ = invoke(capsys, "scan", "Z^3", "3")
    assert code == EXIT_OK
    assert "theorem cover: TheoremCovered(free)" in out
    assert "vanishing decision: Vanishes" in out
    assert "TC(M) < 6" in out


def test_scan_degree_floor(capsys):
    code, _, err = invoke(capsys, "scan", "Z_3", "1")
    assert code == EXIT_DEGREE
    assert "degree >= 2" in err


def test_scan_json(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "scan", "Z^4", "2")
    assert code == EXIT_NONZERO
    payload = json.loads(out)
    assert payload["verdict"] == {
        "theorem": "NotCovered",
        "vanishing": "NonzeroWitness(order infinite)",
    }
    assert payload["witness"]["chi_order"] == "0"


def test_group_parse_error(capsys):
    code, _, err = invoke(capsys, "homology", "Zx", "2")
    assert code == EXIT_USAGE
    assert "bad factor" in err


def test_degree_guard(capsys):
    code, _, err = invoke(capsys, "homology", "Z_3", "17")
    assert code == EXIT_USAGE
    assert "exceeds --max-degree" in err
    code, out, _ = invoke(capsys, "--max-degree", "20", "homology", "Z_3", "17")
    assert code == EXIT_OK
    assert out == "H_17(Z_3; Z) = Z_3\n"
    code, _, err = invoke(capsys, "homology", "Z_3", "-1")
    assert code == EXIT_USAGE
    assert "nonnegative" in err


def test_verify_paper(capsys):
    code, out, _ = invoke(capsys, "verify-paper")
    assert code == EXIT_OK
    assert out.count("PASS  ex:") == 10
    assert "10/10 PASS" in out
    assert "FAIL" not in out


def test_verify_paper_prints_a_failing_example_and_exits_1(capsys, monkeypatch):
    from twisthom import golden

    doctored = dataclasses.replace(golden.GOLDEN[1], order=9)
    monkeypatch.setattr("twisthom.golden.GOLDEN", (golden.GOLDEN[0], doctored))
    code, out, _ = invoke(capsys, "verify-paper")
    assert code == 1
    assert out.splitlines() == ["PASS  ex:cond_a: Z^4, degree 2",
                                "FAIL  ex:cond_b: Z^3 x Z_3, degree 3",
                                "      order mismatch: got 3, want 9",
                                "1/2 PASS"]


def test_verify_paper_list(capsys):
    code, out, _ = invoke(capsys, "verify-paper", "--list")
    assert code == EXIT_OK
    ids = out.split()
    assert len(ids) == 10
    assert ids[0] == "ex:cond_a"


def test_verify_paper_only(capsys):
    code, out, _ = invoke(capsys, "verify-paper", "--only", "ex:cond_c")
    assert code == EXIT_OK
    assert "1/1 PASS" in out
    code, _, err = invoke(capsys, "verify-paper", "--only", "zzz")
    assert code == EXIT_USAGE
    assert "no example named 'zzz'" in err


def test_verify_paper_json(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "verify-paper")
    assert code == EXIT_OK
    payload = json.loads(out)
    rows = payload["examples"]
    assert len(rows) == 10
    assert all(r["status"] == "PASS" for r in rows)
    assert sorted(rows[0]) == ["computed", "detail", "id", "order", "status"]


def test_oracle_compare(capsys):
    code, out, _ = invoke(capsys, "oracle-compare", "Z_3", "2")
    assert code == EXIT_OK
    assert "profile agree" in out
    assert "profile skipped (H_n has free rank)" in out
    assert out.rstrip().endswith("agree")


def test_oracle_compare_json(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json", "oracle-compare", "Z_3", "2", "--cap", "100"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "agree"
    rows = payload["examples"]
    assert [r["degree"] for r in rows] == ["0", "1", "2"]
    assert all(r["homology_agree"] is True for r in rows)
    assert rows[2]["profile"] == "skipped (cap)"


def test_oracle_compare_needs_finite_group(capsys):
    code, _, err = invoke(capsys, "oracle-compare", "Z", "2")
    assert code == EXIT_USAGE
    assert "finite group" in err


def test_oracle_compare_cap_exit(capsys):
    code, _, err = invoke(capsys, "oracle-compare", "Z_3 x Z_3", "2", "--cap", "100")
    assert code == EXIT_CAP
    assert "cap is 100" in err


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_oracle_compare_cap_below_one_is_usage(capsys, cap):
    code, out, err = invoke(capsys, "oracle-compare", "Z_3", "2", "--cap", cap)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--cap must be at least 1" in err


def test_integer_fields_are_decimal_strings(capsys):
    for argv in (
        ("--format", "json", "homology", "Z", "1"),
        ("--format", "json", "scan", "Z^4", "2"),
    ):
        main(list(argv))
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"].isdigit()
        if payload["witness"] and isinstance(payload["witness"], dict):
            assert payload["witness"]["chi_order"].isdigit()
