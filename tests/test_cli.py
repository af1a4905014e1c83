from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quiver_orders import cli, fields, flag_fibers, geometry, kostant
from quiver_orders.cli import main
from quiver_orders.fields import RATIONALS, galois_field
from quiver_orders.geometry import default_test_nus
from quiver_orders.kostant import OrientationLedger
from quiver_orders.quivers import quiver
from quiver_orders.root_system import cartan_datum
from oracles import within_one_second

CALIBRATED = OrientationLedger("reversed", "transposed", "first-factor")


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.quiver"
    path.write_text("type A2\n1 -> 2\n")
    return str(path)


@pytest.fixture
def ledger_file(tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(CALIBRATED.to_json() + "\n")
    return str(path)


def test_roots_output(capsys):
    assert main(["roots", "A2"]) == 0
    out = capsys.readouterr().out
    assert out == "0 1\n1 0\n1 1\n"


def test_roots_deterministic(capsys):
    main(["roots", "D4"])
    first = capsys.readouterr().out
    main(["roots", "D4"])
    assert capsys.readouterr().out == first


def test_roots_bad_type(capsys):
    assert main(["roots", "Z9"]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_order_word(capsys):
    assert main(["order", "A2", "2,1,2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "word: 2 1 2"
    assert "sign violations: 0" in lines[-1]
    assert "1\t0\t-1" in out  # first row of the pairing matrix


def test_order_adapted(capsys, a2_file):
    assert main(["order", "A2", "--adapted", a2_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("word: 2 1 2")


def test_order_adapted_accepts_an_equal_type_label(capsys, tmp_path):
    path = tmp_path / "a3.quiver"
    path.write_text("type A03\n1 -> 2\n2 -> 3\n")
    assert main(["order", "A3", "--adapted", str(path)]) == 0
    assert capsys.readouterr().out.startswith("word: 3 2 1 3 2 3\n")
    assert main(["order", "a3", "--adapted", str(path)]) == 0
    capsys.readouterr()
    assert main(["order", "A4", "--adapted", str(path)]) == 2
    assert "quiver file type does not match TYPE" in capsys.readouterr().err


def test_order_needs_exactly_one_source(capsys, a2_file):
    assert main(["order", "A2"]) == 2
    capsys.readouterr()
    assert main(["order", "A2", "2,1,2", "--adapted", a2_file]) == 2
    assert "usage error" in capsys.readouterr().err


def test_kp_listing(capsys, a2_file):
    assert main(["kp", a2_file, "1,1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "0 1 0\t(1 1)"
    assert lines[1] == "1 0 1\t(0 1), (1 0)"
    assert lines[2] == "kpf: 2"


def test_kp_hasse_needs_ledger(capsys, a2_file, tmp_path):
    out_dot = str(tmp_path / "h.dot")
    assert main(["kp", a2_file, "1,1", "--hasse", out_dot]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and "--ledger" in captured.err


def test_kp_hasse_writes_dot(capsys, a2_file, ledger_file, tmp_path):
    out_dot = tmp_path / "h.dot"
    assert main(["kp", a2_file, "1,1", "--hasse", str(out_dot), "--ledger", ledger_file]) == 0
    text = out_dot.read_text()
    assert text.startswith("digraph")
    assert '"1 0 1" -> "0 1 0"' in text


@pytest.mark.parametrize(
    "extra",
    [["--ledger", "/nonexistent"], ["--cap", "0"], ["--ledger", "/nonexistent", "--cap", "0"]],
    ids=["ledger", "cap", "both"],
)
def test_kp_hasse_options_need_hasse(capsys, a2_file, extra):
    assert main(["kp", a2_file, "1,1", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --ledger and --cap apply only with --hasse\n"


@pytest.mark.parametrize("cap, nu, code", [(None, "200,200", 1), (None, "199,199", 0), ("1", "1,1", 1)])
def test_kp_hasse_cap(capsys, a2_file, ledger_file, tmp_path, cap, nu, code):
    """KP(n, n) of A2 has n + 1 elements; without --cap the Hasse cap is 200."""
    out_dot = tmp_path / "h.dot"
    argv = ["kp", a2_file, nu, "--hasse", str(out_dot), "--ledger", ledger_file]
    assert main(argv + (["--cap", cap] if cap else [])) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and not out_dot.exists()
        assert "over the cap" in captured.err
    else:
        assert captured.out.endswith(f"kpf: 200\nhasse: wrote {out_dot}\n")


def test_kp_hasse_cap_stops_the_enumeration(capsys, ledger_file, tmp_path, monkeypatch):
    """KP(2,3,4,6,4,2) of E6 has 58,984 partitions; --cap 5 builds at most 6."""
    e6 = tmp_path / "e6.quiver"
    e6.write_text("type E6\n1 -> 3\n2 -> 4\n3 -> 4\n4 -> 5\n5 -> 6\n")
    built = []
    kostant_partition = kostant.KostantPartition

    def counting(order, counts):
        built.append(counts)
        return kostant_partition(order, counts)

    monkeypatch.setattr(kostant, "KostantPartition", counting)
    out_dot = tmp_path / "h.dot"
    argv = ["kp", str(e6), "2,3,4,6,4,2", "--hasse", str(out_dot), "--ledger", ledger_file]
    assert main(argv + ["--cap", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out_dot.exists()
    assert captured.err == (
        "error: KP((2, 3, 4, 6, 4, 2)) reached 6 partitions, over the cap 5\n"
    )
    assert len(built) <= 6


def test_kp_bad_nu(capsys, a2_file):
    assert main(["kp", a2_file, "1,1,1"]) == 2
    assert main(["kp", a2_file, "x,y"]) == 2


def test_calibrate_output_and_file(capsys, a2_file, tmp_path):
    out_path = tmp_path / "ledger.json"
    assert main(["calibrate", a2_file, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "order_direction: reversed" in out
    assert "hom_formula_direction: transposed" in out
    assert "res_large_side: first-factor" in out
    data = json.loads(out_path.read_text())
    assert OrientationLedger.from_json(json.dumps(data)) == CALIBRATED


def test_calibrate_deterministic(capsys, a2_file):
    main(["calibrate", a2_file])
    first = capsys.readouterr().out
    main(["calibrate", a2_file])
    assert capsys.readouterr().out == first


def test_verify_ringel(capsys, a2_file):
    assert main(["verify", "ringel", a2_file]) == 0
    out = capsys.readouterr().out
    assert "ok: hom formula direction: transposed" in out
    assert out.strip().endswith("1/1 checks passed")


def test_verify_ringel_prints_both_on_a1(capsys, tmp_path):
    path = tmp_path / "a1.quiver"
    path.write_text("type A1\n")
    assert main(["verify", "ringel", str(path)]) == 0
    assert capsys.readouterr().out == "ok: hom formula direction: both\n1/1 checks passed\n"


def test_verify_baumann(capsys, a2_file, ledger_file):
    assert main(["verify", "baumann", a2_file, "--ledger", ledger_file, "--nu-max", "2"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("6/6 checks passed")
    assert "FAIL" not in out


def test_verify_baumann_fails_with_wrong_ledger(capsys, a2_file, tmp_path):
    wrong = OrientationLedger("as-printed", "transposed", "first-factor")
    path = tmp_path / "wrong.json"
    path.write_text(wrong.to_json())
    assert main(["verify", "baumann", a2_file, "--ledger", str(path), "--nu-max", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


VERIFY_OPTIONS = {
    "ringel": (),
    "baumann": ("--ledger", "--nu-max"),
    "mackey": ("--ledger", "--nu-max"),
    "reflection": ("--ledger", "--nu-max"),
    "evenness": ("--nu-max", "--q-list"),
}
OPTION_VALUES = {"--ledger": "/nonexistent", "--nu-max": "1", "--q-list": "2", "--cap": "5"}


@pytest.mark.parametrize(
    "check, flag",
    [
        (check, flag)
        for check, kept in VERIFY_OPTIONS.items()
        for flag in OPTION_VALUES
        if flag not in kept
    ],
)
def test_verify_rejects_options_its_check_does_not_read(capsys, check, flag):
    """argparse rejects the option before any file is read: the quiver and
    ledger paths do not exist, and reading either would return exit 2
    instead of raising SystemExit."""
    argv = ["verify", check, "/nonexistent.quiver", flag, OPTION_VALUES[flag]]
    if "--ledger" in VERIFY_OPTIONS[check]:
        argv += ["--ledger", "/nonexistent"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {OPTION_VALUES[flag]}" in captured.err


@pytest.mark.parametrize("check", VERIFY_OPTIONS)
def test_verify_help_lists_only_its_options(capsys, check):
    with pytest.raises(SystemExit) as exc:
        main(["verify", check, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = {flag for flag in OPTION_VALUES if flag in out}
    assert listed == set(VERIFY_OPTIONS[check])


@pytest.mark.parametrize("text", ["[1, 2]", '"x"'])
def test_ledger_that_is_not_an_object_is_a_usage_error(capsys, a2_file, tmp_path, text):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(text)
    assert main(["verify", "baumann", a2_file, "--ledger", str(ledger)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: ledger is not a JSON object\n"


def test_verify_needs_ledger(capsys, a2_file):
    assert main(["verify", "baumann", a2_file]) == 2
    err = capsys.readouterr().err
    assert "calibrate" in err


def test_verify_mackey(capsys, a2_file, ledger_file):
    assert main(["verify", "mackey", a2_file, "--ledger", ledger_file, "--nu-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_reflection(capsys, a2_file, ledger_file):
    assert main(["verify", "reflection", a2_file, "--ledger", ledger_file, "--nu-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "order compatible with reflection" in out


def test_verify_evenness(capsys, a2_file):
    assert main(["verify", "evenness", a2_file, "--nu-max", "2", "--q-list", "2,3,4,5"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_evenness_interpolates_the_d4_source_centre(capsys, tmp_path):
    # the classes of the source centre with no fiber polynomial are interpolated
    path = tmp_path / "d4.quiver"
    path.write_text("type D4\n2 -> 1\n2 -> 3\n2 -> 4\n")
    assert main(["verify", "evenness", str(path), "--nu-max", "4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.splitlines()[-1] == "137/137 checks passed"


@pytest.mark.parametrize("check", ["baumann", "mackey", "reflection", "evenness"])
def test_verify_enumerates_each_nu_once(capsys, a2_file, ledger_file, monkeypatch, check):
    """The command enumerates each swept KP(nu) once and hands it to the check."""
    enumerated = []
    enumerate_all = cli.enumerate_kp

    def counted(datum, nu, order):
        enumerated.append(nu)
        return enumerate_all(datum, nu, order)

    monkeypatch.setattr(cli, "enumerate_kp", counted)
    monkeypatch.setattr(geometry, "enumerate_kp", lambda *args: pytest.fail("a check enumerated"))
    extra = ["--q-list", "2,3,4,5"] if check == "evenness" else ["--ledger", ledger_file]
    assert main(["verify", check, a2_file, "--nu-max", "2", *extra]) == 0
    assert enumerated == [(0, 0), *default_test_nus(cartan_datum("A2"), 2)]


def test_verify_evenness_rejects_bad_q(capsys, a2_file):
    assert main(["verify", "evenness", a2_file, "--q-list", "6"]) == 2


def test_count_fibers(capsys, a2_file):
    assert main(["count", "fibers", a2_file, "1,1", "--q", "2,3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "lambda\tq\tcount"
    assert "0 1 0\t2\t1" in lines
    assert "1 0 1\t3\t2" in lines


def test_count_fibers_stops_at_the_fiber_table_cap(capsys, a2_file, monkeypatch):
    argv = ["count", "fibers", a2_file, "1,1", "--q", "2"]
    flag_fibers._fiber_table.cache_clear()
    flag_fibers._class_memo.cache_clear()
    assert main(argv) == 0
    out = capsys.readouterr().out
    # every class of A2 has a fiber polynomial: the count expands them once,
    # over Q, and builds no table over F_2
    A2 = quiver("A2", ((1, 2),))
    assert flag_fibers._fiber_table(A2, galois_field(2)) == {}
    size = len(flag_fibers._fiber_table(A2, RATIONALS))
    assert size > 0
    monkeypatch.setattr(flag_fibers, "_FIBER_CAP", size)
    flag_fibers._fiber_table.cache_clear()
    flag_fibers._class_memo.cache_clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == out
    monkeypatch.setattr(flag_fibers, "_FIBER_CAP", 0)
    flag_fibers._fiber_table.cache_clear()
    flag_fibers._class_memo.cache_clear()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: fiber table of A2 ((1, 2),) over Q reached 1 classes, over the cap 0\n"
    )
    flag_fibers._fiber_table.cache_clear()
    flag_fibers._class_memo.cache_clear()


def test_count_z(capsys, a2_file):
    assert main(["count", "z", a2_file, "1,1", "--q", "2,3,5"]) == 0
    out = capsys.readouterr().out
    assert "1 1\t2\t5" in out
    assert "1 1\t3\t6" in out
    assert "1 1\t5\t8" in out


def test_missing_quiver_file(capsys):
    assert main(["kp", "/nonexistent/path.quiver", "1,1"]) == 2


def test_bad_input_is_a_usage_error(capsys, a2_file, tmp_path):
    bad_quiver = tmp_path / "bad.quiver"
    bad_quiver.write_text("type A2\n1 -> 3\n")
    bad_ledger = tmp_path / "bad.json"
    bad_ledger.write_text('{"order_direction": "sideways"}')
    assert main(["kp", str(bad_quiver), "1,1"]) == 2
    assert main(["verify", "baumann", a2_file, "--ledger", str(bad_ledger)]) == 2
    assert main(["order", "A2", "1,1,1"]) == 2
    assert main(["calibrate", a2_file, "--nu-max", "1"]) == 2
    assert main(["verify", "evenness", a2_file, "--nu-max", "3", "--q-list", "2,3"]) == 2
    assert main(["count", "z", a2_file, "1,1", "--q", "2,x"]) == 2
    err = capsys.readouterr().err
    assert err.count("usage error") == 6
    assert "no comparable pairs" in err and "insufficient q values" in err


def test_unreadable_input_file_is_a_usage_error(capsys, a2_file, tmp_path):
    binary = tmp_path / "binary.quiver"
    binary.write_bytes(b"\xff\xfe\x00")
    assert main(["verify", "ringel", str(tmp_path)]) == 2
    assert main(["verify", "baumann", a2_file, "--ledger", str(tmp_path)]) == 2
    assert main(["kp", str(binary), "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("usage error") == 3
    assert "Is a directory" in captured.err


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
@pytest.mark.parametrize(
    "argv",
    [
        ["kp", "{quiver}", "1,1", "--ledger", "{ledger}", "--hasse", "{out}"],
        ["calibrate", "{quiver}", "--out", "{out}"],
    ],
    ids=["kp-hasse", "calibrate-out"],
)
def test_unwritable_output_file_is_a_usage_error(
    capsys, a2_file, ledger_file, tmp_path, argv, target
):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "out.txt"
    argv = [a.format(quiver=a2_file, ledger=ledger_file, out=out) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["verify", "baumann", "{quiver}", "--ledger", "{ledger}", "--nu-max", "-1"], id="argv0"
        ),
        pytest.param(["calibrate", "{quiver}", "--nu-max", "-1"], id="argv2"),
        pytest.param(
            ["kp", "{quiver}", "1,1", "--hasse", "{out}", "--ledger", "{ledger}", "--cap", "-1"],
            id="argv3",
        ),
    ],
)
def test_negative_nu_max_and_cap_rejected(capsys, a2_file, ledger_file, tmp_path, argv):
    out_dot = tmp_path / "h.dot"
    argv = [a.format(quiver=a2_file, ledger=ledger_file, out=out_dot) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "-1 is negative" in captured.err
    assert not out_dot.exists()


def test_internal_value_error_is_not_a_usage_error(monkeypatch, a2_file):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "evenness_check", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["verify", "evenness", a2_file, "--nu-max", "1"])
    monkeypatch.setattr(cli, "enumerate_kp", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["kp", a2_file, "1,1"])


def test_short_q_list_rejected_before_any_output(capsys, a2_file):
    # nu=(3,0) needs four q values; smaller nus of the sweep need fewer
    assert main(["verify", "evenness", a2_file, "--nu-max", "3", "--q-list", "2,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "insufficient q values: need at least 4, got 2" in captured.err


def test_second_type_line_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "two_types.quiver"
    path.write_text("type A2\ntype A3\n1 -> 2\n3 -> 2\n")
    assert main(["kp", str(path), "1,1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "second 'type' line" in captured.err


@pytest.mark.parametrize(
    "text,message",
    [
        ("type A2\n1 -> 1\n", "arrows do not orient the diagram edges exactly once"),
        ("type A2\n1 -> x\n", "bad arrow line: '1 -> x'"),
        (
            "type A2\norientation linear\n1 -> 2\n",
            "give either 'orientation linear' or arrow lines, not both",
        ),
    ],
)
def test_bad_quiver_file_is_a_usage_error(capsys, tmp_path, text, message):
    path = tmp_path / "bad.quiver"
    path.write_text(text)
    assert main(["kp", str(path), "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


@pytest.mark.parametrize("field", ["hom_formula_direction", "res_large_side"])
def test_ledger_with_a_bad_field_is_a_usage_error(capsys, a2_file, tmp_path, field):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({**json.loads(CALIBRATED.to_json()), field: "sideways"}))
    assert main(["verify", "baumann", a2_file, "--ledger", str(ledger)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: bad {field}: 'sideways'\n"


def test_field_over_the_table_bound_is_a_usage_error(capsys, a2_file, monkeypatch):
    # a broken bound fails here instead of building 2048 x 2048 tables
    monkeypatch.setattr(fields, "_tables", lambda *args: pytest.fail("a field table was built"))
    assert main(["count", "fibers", a2_file, "1,1", "--q", "2,2048"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "GF(2048) is too large" in captured.err


def test_a_large_prime_q_is_answered_at_once(capsys, a2_file):
    q = 2**61 - 1
    t0 = time.perf_counter()
    assert main(["count", "fibers", a2_file, "1,1", "--q", str(q)]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out.splitlines()[1:] == [f"0 1 0\t{q}\t1", f"1 0 1\t{q}\t2"]


def test_a_prime_q_above_the_primality_bound_is_a_usage_error(capsys, a2_file):
    q = 2**89 - 1
    with within_one_second():
        assert main(["count", "fibers", a2_file, "1,1", "--q", str(q)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot tell whether {q} is prime" in captured.err


@pytest.mark.parametrize("what,header", [("fibers", "lambda"), ("z", "nu")])
def test_counts_from_fiber_polynomials_build_no_field(capsys, tmp_path, monkeypatch, what, header):
    # every class of A3 has a fiber polynomial, so q = 1024 is only checked
    path = tmp_path / "a3.quiver"
    path.write_text("type A3\n1 -> 2\n3 -> 2\n")
    monkeypatch.setattr(fields, "_tables", lambda *args: pytest.fail("a field table was built"))
    galois_field.cache_clear()
    assert main(["count", what, str(path), "2,2,2", "--q", "1024"]) == 0
    assert capsys.readouterr().out.startswith(f"{header}\tq\tcount\n")
    assert galois_field.cache_info().currsize == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    text = README.read_text()
    (tmp_path / "q.txt").write_text(re.search(r"```\n(type A3\n.*?)```", text, re.S).group(1))
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    argvs = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]
    # the kp and verify lines read the ledger that calibrate writes
    argvs.sort(key=lambda argv: argv[0] != "calibrate")
    assert len(argvs) == 12 and argvs[0][:3] == ["calibrate", "q.txt", "--out"]
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_seed_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "roots", "A2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["roots", "A2"]) == 0
    first = capsys.readouterr().out
    assert main(["roots", "A2"]) == 0
    assert capsys.readouterr().out == first


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quiver_orders", "roots", "A2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 1\n1 0\n1 1\n"


def test_closed_stdout_exits_141_quietly(tmp_path):
    """KP(1,2,2,3,2,1) of linear E6 prints about 96 KB, more than a pipe
    buffer holds, so the listing is still being written when the reader
    stops after one line."""
    e6 = tmp_path / "e6.quiver"
    e6.write_text("type E6\norientation linear\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "quiver_orders", "kp", str(e6), "1,2,2,3,2,1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().endswith(b"\t(1 2 2 3 2 1)\n")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_stdout_closed_before_a_short_output_exits_141_quietly():
    """With stdout buffered, the three lines of `roots A2` stay in the buffer
    until the last flush, which meets a pipe whose reader is already gone."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quiver_orders", "roots", "A2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
