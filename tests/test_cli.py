"""End-to-end CLI behavior: exit codes, JSON shapes, determinism."""

import argparse
import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from meanking import cli, mub
from meanking.cli import main
from meanking.protocol import SimulationSummary
from meanking.tomography import DensityMatrix, ProbabilityTable


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestVerify:
    def test_exact_p5_passes(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--p", "5", "--json")
        assert code == 0
        assert doc["passed"] is True
        assert doc["schema_version"] == 1
        names = [c["name"] for c in doc["checks"]]
        assert names == [
            "unbiasedness",
            "trace_relations",
            "entangled_basis",
            "measurement_basis",
            "retrodiction",
        ]
        assert all(c["passed"] for c in doc["checks"])

    @pytest.mark.parametrize("passed, word, code", [(True, "PASS", "32"), (False, "FAIL", "31")])
    def test_status_is_coloured_on_a_terminal_unless_no_color(self, passed, word, code, monkeypatch):
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        monkeypatch.delenv("NO_COLOR", raising=False)
        assert cli._status(passed) == f"\x1b[{code}m{word}\x1b[0m"
        monkeypatch.setenv("NO_COLOR", "1")
        assert cli._status(passed) == word

    def test_composite_p_exits_2_and_mentions_diagnose(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--p", "6")
        assert code == 2
        assert "diagnose" in err

    def test_float_backend_p13(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--p", "13", "--backend", "float", "--json"
        )
        assert code == 0
        assert doc["passed"] is True

    @pytest.mark.parametrize("p", ["0", "1", "20"])
    def test_no_diagnose_hint_where_diagnose_refuses(self, capsys, p):
        code, _, err = run_cli(capsys, "verify", "--p", p)
        assert code == 2
        assert err.startswith("error:")
        assert "diagnose" not in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "verify", "--p", "2", "--json", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert not target.exists()

    def test_unwritable_out_fails_before_any_family_is_built(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a family was built before --out was opened")

        monkeypatch.setattr(cli, "build_mub_family", refuse)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "verify", "--p", "7", "--json", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out")

    def test_empty_out_path_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--p", "2", "--out", "")
        assert code == 2
        assert out == ""
        assert err == "error: cannot write --out : No such file or directory\n"

    @pytest.mark.parametrize("existed", [True, False])
    def test_out_without_a_temporary_file_fails_before_any_family_is_built(
        self, capsys, tmp_path, monkeypatch, existed
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a family was built before the temporary file was made")

        def deny(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli, "build_mub_family", refuse)
        monkeypatch.setattr(cli.tempfile, "mkstemp", deny)
        target = tmp_path / "x.json"
        if existed:
            target.write_text("earlier report\n")
        code, out, err = run_cli(capsys, "verify", "--p", "7", "--json", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write --out {target}: Permission denied\n"
        assert os.listdir(tmp_path) == (["x.json"] if existed else [])
        assert (target.read_text() == "earlier report\n") if existed else not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--p", "6"],
            ["verify", "--p", "17"],
            ["simulate", "--p", "3", "--king-strategy", "fixed:7"],
            ["simulate", "--p", "3", "--rounds", "0"],
            ["bases", "--p", "4"],
            ["tomography", "--p", "1"],
            ["tomography", "--p", "5", "--seed", "-1"],
            ["diagnose", "--p", "7"],
        ],
    )
    def test_invalid_input_leaves_no_out_file(self, capsys, tmp_path, argv):
        target = tmp_path / "x.json"
        code, _, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2
        assert err.startswith("error:")
        assert not target.exists()

    @pytest.mark.parametrize("existed", [True, False])
    def test_run_failing_after_validation_leaves_out_as_it_was(self, tmp_path, monkeypatch, existed):
        def fail(*args, **kwargs):
            raise RuntimeError("interrupted mid-run")

        monkeypatch.setattr(cli, "build_mub_family", fail)
        target = tmp_path / "x.json"
        if existed:
            target.write_text("earlier report\n")
        with pytest.raises(RuntimeError):
            main(["verify", "--p", "3", "--json", "--out", str(target)])
        assert (target.read_text() == "earlier report\n") if existed else not target.exists()

    def test_exact_ceiling_enforced(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--p", "17")
        assert code == 2
        assert "ceiling" in err

    def test_text_output_lists_every_family(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "3")
        assert code == 0
        for name in ["unbiasedness", "trace_relations", "retrodiction"]:
            assert name in out
        assert "PASS" in out


class TestSimulate:
    def test_p3_reports_perfect_success(self, capsys):
        code, doc, _ = run_json(
            capsys, "simulate", "--p", "3", "--rounds", "500", "--seed", "42", "--json"
        )
        assert code == 0
        assert doc["success_rate"] == 1.0
        assert doc["successes"] == 500
        assert doc["p"] == 3
        assert "histogram" in doc and "prng" in doc

    def test_fixed_strategy(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "simulate", "--p", "2", "--rounds", "200", "--seed", "1",
            "--king-strategy", "fixed:1", "--json",
        )
        assert code == 0
        assert list(doc["histogram"]) == ["1"]

    def test_byte_identical_for_identical_config(self, capsys):
        argv = ["simulate", "--p", "3", "--rounds", "300", "--seed", "9", "--json"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_emit_rounds_includes_records(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "simulate", "--p", "2", "--rounds", "5", "--seed", "0",
            "--json", "--emit-rounds",
        )
        assert code == 0
        assert len(doc["rounds_detail"]) == 5
        assert all(r["correct"] for r in doc["rounds_detail"])

    def test_emit_rounds_in_text_mode_keeps_no_rounds(self, capsys, monkeypatch):
        argv = ["simulate", "--p", "3", "--rounds", "5"]
        _, plain, _ = run_cli(capsys, *argv)
        real, kept = cli.simulate, []

        def recording(*args, **kwargs):
            kept.append(kwargs["keep_records"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate", recording)
        code, out, _ = run_cli(capsys, *argv, "--emit-rounds")
        assert code == 0 and kept == [False]
        assert out == plain and len(out.splitlines()) == 2

    def test_bad_strategy_is_invalid_input(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--p", "3", "--king-strategy", "fixed:7"
        )
        assert code == 2

    def test_composite_p_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--p", "4")
        assert code == 2

    def test_ceiling_enforced(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--p", "37", "--rounds", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "ceiling of 31" in err

    def test_emit_rounds_above_its_ceiling_exits_2_before_any_round(self, capsys, tmp_path, monkeypatch):
        # every kept round stays in memory until the JSON is written
        class Started(Exception):
            pass

        def started(*args, **kwargs):
            raise Started

        monkeypatch.setattr(cli, "simulate", started)
        out = tmp_path / "rounds.json"
        code, stdout, err = run_cli(
            capsys, "simulate", "--p", "3", "--rounds", str(10**9), "--emit-rounds", "--json", "--out", str(out)
        )
        assert code == 2
        assert stdout == "" and err.startswith("error:") and str(cli.EMIT_ROUNDS_MAX) in err
        assert not out.exists()
        # the ceiling binds only the rounds that are kept: text output keeps none
        for argv in (
            ["--rounds", str(cli.EMIT_ROUNDS_MAX), "--emit-rounds", "--json"],
            ["--rounds", str(10**9), "--json"],
            ["--rounds", str(10**9), "--emit-rounds"],
        ):
            with pytest.raises(Started):
                main(["simulate", "--p", "3", *argv])

    def test_emit_rounds_reach_the_temporary_file_as_they_are_written(self, capsys, tmp_path, monkeypatch):
        target, seen = tmp_path / "rounds.json", []
        round_dicts = SimulationSummary.round_dicts

        def watched(summary):
            for i, item in enumerate(round_dicts(summary)):
                if i == 2000:  # the file beside the target already holds nearly every earlier round
                    (temp,) = set(tmp_path.iterdir()) - {target}
                    seen.append(temp.read_text().count('"king_choice"'))
                yield item

        monkeypatch.setattr(SimulationSummary, "round_dicts", watched)
        argv = ["simulate", "--p", "3", "--rounds", "3000", "--emit-rounds", "--json", "--out", str(target)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == ""
        assert len(seen) == 1 and 1900 <= seen[0] <= 2000
        assert os.listdir(tmp_path) == ["rounds.json"]
        assert len(json.loads(target.read_text())["rounds_detail"]) == 3000


class TestBases:
    def test_p2_has_three_bases_of_two_kets(self, capsys):
        code, doc, _ = run_json(capsys, "bases", "--p", "2", "--format", "json")
        assert code == 0
        assert doc["p"] == 2
        assert len(doc["bases"]) == 3
        assert all(len(basis) == 2 for basis in doc["bases"])
        amp = doc["bases"][0][0][0]
        assert set(amp) == {"scale_pow", "coeffs"}

    def test_float_backend_encoding(self, capsys):
        code, doc, _ = run_json(
            capsys, "bases", "--p", "3", "--backend", "float", "--format", "json"
        )
        assert code == 0
        assert set(doc["bases"][1][0][0]) == {"re", "im"}

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "bases", "--p", "2", "--format", "text")
        assert code == 0
        assert "basis m=0" in out and "basis m=2" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "bases.json"
        code, out, _ = run_cli(
            capsys, "bases", "--p", "2", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["p"] == 2

    def test_ceiling_enforced(self, capsys):
        code, out, err = run_cli(capsys, "bases", "--p", "127", "--backend", "float")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "ceiling of 31" in err


class TestTomography:
    def test_round_trip_error_is_tiny(self, capsys):
        code, doc, _ = run_json(
            capsys, "tomography", "--p", "5", "--seed", "7", "--json"
        )
        assert code == 0
        assert doc["frobenius_error"] <= 1e-9
        assert len(doc["table"]) == 6
        assert len(doc["rho"]) == 5

    def test_deterministic_for_same_seed(self, capsys):
        argv = ["tomography", "--p", "3", "--seed", "11", "--json"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_text_mode_builds_no_json_payload(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("text mode built a JSON payload")

        monkeypatch.setattr(DensityMatrix, "to_json", refuse)
        monkeypatch.setattr(ProbabilityTable, "to_json", refuse)
        code, out, _ = run_cli(capsys, "tomography", "--p", "5", "--seed", "7")
        assert code == 0
        assert out.startswith("tomography p=5 seed=7\nfrobenius_error=")

    def test_ceiling_enforced(self, capsys):
        code, out, err = run_cli(capsys, "tomography", "--p", "131")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "ceiling of 127" in err


class TestDiagnose:
    def test_composite_6_succeeds_with_witnesses(self, capsys):
        code, doc, _ = run_json(capsys, "diagnose", "--p", "6", "--json")
        assert code == 0
        assert doc["witness_count"] >= 1
        assert doc["n"] == 6

    def test_prime_is_refused(self, capsys):
        code, _, err = run_cli(capsys, "diagnose", "--p", "7")
        assert code == 2
        assert "prime" in err

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--p", "4")
        assert code == 0
        assert "witness" in out

    def test_unwritable_out_fails_before_the_diagnosis(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("diagnosed before --out was opened")

        monkeypatch.setattr(cli, "diagnose_composite", refuse)
        code, out, err = run_cli(capsys, "diagnose", "--p", "6", "--out", str(tmp_path / "missing" / "x"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out")


@pytest.mark.parametrize("command", ["verify", "simulate", "bases", "tomography", "diagnose"])
def test_huge_prime_is_refused_before_any_primality_test(capsys, monkeypatch, command):
    # 10^18 + 3 is prime; the CLI gives the ceiling message before any primality test
    def refuse(n):
        raise AssertionError(f"primality test of {n} before the ceiling check")

    monkeypatch.setattr(mub, "_is_prime", refuse)
    code, out, err = run_cli(capsys, command, "--p", "1000000000000000003")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_help_names_every_ceiling(capsys):
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"exact backend up to p={cli.EXACT_VERIFY_MAX_P}" in text
    assert f"float up to p={cli.FLOAT_VERIFY_MAX_P}" in text
    assert f"play seeded protocol rounds (p up to {cli.FLOAT_VERIFY_MAX_P})" in text
    assert f"emit the p+1 orthonormal bases (p up to {cli.FLOAT_VERIFY_MAX_P})" in text
    assert f"probability table (p up to {cli.TOMOGRAPHY_MAX_P})" in text


def test_simulate_help_names_the_emit_rounds_ceiling(capsys):
    assert main(["simulate", "--help"]) == 0
    assert f"--rounds up to {cli.EMIT_ROUNDS_MAX}" in capsys.readouterr().out


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-320, 1.7976931348623157e308])
    | st.text(max_size=6)
)
complex_entries = st.lists(st.fixed_dictionaries({"im": st.floats(), "re": st.floats()}), max_size=4)
json_trees = st.recursive(
    json_leaves | complex_entries | st.lists(st.floats(), max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(json_trees)
def test_json_writer_equals_json_dumps(tree):
    # non-ASCII text, big ints, NaN, the infinities, -0.0, bools, None and empty
    # containers, in and out of lists of floats and of {"im", "re"} dicts
    out = io.StringIO()
    cli._write_json(tree, out, "")
    assert out.getvalue() == json.dumps(tree, sort_keys=True, indent=2)
    out = io.StringIO()
    cli._emit_json({"payload": tree}, out)
    assert out.getvalue() == json.dumps({"payload": tree, "schema_version": 1}, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(json_trees, max_size=3))
def test_json_writer_streams_an_iterator_as_its_list(items):
    # simulate's kept rounds reach the writer as an iterator, drawn an item at a time
    out = io.StringIO()
    cli._emit_json({"payload": iter(items)}, out)
    assert out.getvalue() == json.dumps({"payload": items, "schema_version": 1}, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        st.sampled_from([np.float64, np.complex128]), hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
    )
)
def test_json_writer_writes_an_array_as_its_list(array):
    # tomography's matrices and the float bases reach the writer as arrays,
    # written a row at a time; NaN, the infinities and empty rows fall back to json.dumps
    entry = (lambda z: {"im": float(z.imag), "re": float(z.real)}) if array.dtype.kind == "c" else float
    listed = lambda a: [listed(x) for x in a] if a.ndim > 1 else [entry(z) for z in a]
    out = io.StringIO()
    cli._emit_json({"payload": array}, out)
    want = {"payload": listed(array), "schema_version": 1}
    assert out.getvalue() == json.dumps(want, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("side", ["object", "ancilla"])
def test_float_bases_reach_the_writer_as_the_family_array(side, monkeypatch):
    payloads = []
    monkeypatch.setattr(cli, "_emit_json", lambda payload, out: payloads.append(payload))
    assert main(["bases", "--p", "5", "--backend", "float", "--side", side]) == 0
    (payload,) = payloads
    assert type(payload["bases"]) is np.ndarray and payload["bases"].shape == (6, 5, 5)
    assert payload["bases"].dtype == complex
    assert {key: payload[key] for key in ("p", "side", "backend")} == {"p": 5, "side": side, "backend": "float"}


class FailingStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_out_on_a_full_device_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--json", "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert err == "error: cannot write output: No space left on device\n"


def test_broken_stdout_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", FailingStdout())
    code = main(["verify", "--p", "3", "--json"])
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write output: Broken pipe\n"


def _child(argv, stdout, preexec_fn=None):
    """The CLI in a fresh interpreter, its stdout on the given descriptor and
    block-buffered, as a user's shell runs it."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    script = "import sys; from meanking.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        timeout=120,
        preexec_fn=preexec_fn,
    )


def test_closed_pipe_ends_in_one_error_line():
    # the interpreter's own flush of stdout at exit must not report the pipe again
    read, write = os.pipe()
    os.close(read)
    try:
        result = _child(["verify", "--p", "3", "--json"], write)
    finally:
        os.close(write)
    assert result.returncode == 2
    assert result.stderr.decode() == "error: cannot write output: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("argv", [["verify", "--p", "3", "--json"], ["tomography", "--p", "31", "--json"]])
def test_stdout_on_a_full_device_ends_in_one_error_line(argv):
    # verify's JSON fits stdout's buffer and fails at the flush, tomography's
    # fails while it is written
    with open("/dev/full", "w") as full:
        result = _child(argv, full)
    assert result.returncode == 2
    assert result.stderr.decode() == "error: cannot write output: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this platform")
def test_out_to_dev_stdout_into_a_pipe_is_written_in_place():
    # a device is opened by the path given: into a pipe, /dev/stdout resolves to pipe:[...]
    result = _child(["verify", "--p", "2", "--json", "--out", "/dev/stdout"], subprocess.PIPE)
    assert result.returncode == 0
    assert result.stderr == b""
    assert json.loads(result.stdout)["passed"] is True


def test_out_survives_a_write_that_fails_partway(tmp_path):
    # the child may write at most 1024 bytes to a file; tomography's JSON is far longer
    resource = pytest.importorskip("resource")

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    argv = ["tomography", "--p", "31", "--json", "--out"]
    report, link, new = tmp_path / "report.json", tmp_path / "link.json", tmp_path / "new.json"
    dangling = tmp_path / "dangling.json"
    report.write_text("earlier report\n")
    report.chmod(0o640)
    link.symlink_to(report.name)
    dangling.symlink_to("missing.json")
    for target in (link, new, dangling):
        result = _child([*argv, str(target)], subprocess.DEVNULL, limit_file_size)
        assert result.returncode == 2
        assert result.stderr.decode() == "error: cannot write output: File too large\n"
    assert sorted(os.listdir(tmp_path)) == ["dangling.json", "link.json", "report.json"]
    assert dangling.is_symlink() and link.is_symlink() and report.read_text() == "earlier report\n"
    assert stat.S_IMODE(report.stat().st_mode) == 0o640
    # a write that succeeds replaces the file behind the symlink and keeps its mode
    assert _child(["verify", "--p", "2", "--json", "--out", str(link)], subprocess.DEVNULL).returncode == 0
    assert link.is_symlink() and json.loads(report.read_text())["passed"] is True
    assert stat.S_IMODE(report.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["dangling.json", "link.json", "report.json"]


# each subcommand's option strings: a flag lost or added shows here
CLI_FLAGS = {
    "verify": ["--backend", "--help", "--json", "--out", "--p", "-h"],
    "simulate": ["--emit-rounds", "--help", "--json", "--king-strategy", "--out", "--p", "--rounds", "--seed", "-h"],
    "bases": ["--backend", "--format", "--help", "--out", "--p", "--side", "-h"],
    "tomography": ["--help", "--json", "--out", "--p", "--seed", "-h"],
    "diagnose": ["--help", "--json", "--out", "--p", "-h"],
}


# values for every flag, at p <= 7 and at most 200 rounds: ones some
# subcommand takes, then bad ones; None for a flag that takes no value
ARGV_VALUES = {
    "--p": (["2", "3", "4", "5", "6", "7"], ["-2", "0", "1", "x", "", "2.5", "1000000000000000003"]),
    "--rounds": (st.integers(1, 200).map(str), ["-2", "0", "x", ""]),
    "--seed": (st.integers(-(2**70), 2**70).map(str) | st.just("7" * 2500), ["x", "1.5", ""]),
    "--king-strategy": (["uniform", "fixed:0", "fixed:2"], ["fixed:7", "fixed:-1", "fixed: 1", "fixed:", "other"]),
    "--backend": (["exact", "float"], ["other"]),
    "--side": (["object", "ancilla"], ["other"]),
    "--format": (["json", "text"], ["other"]),
    "--out": (["x.json"], ["", "missing/x.json"]),  # in a fresh directory, but ""
    "--json": ([None], [None]),
    "--emit-rounds": ([None], [None]),
}


@st.composite
def argvs(draw):
    """A subcommand (or an unknown one) with --p in most, its own flags and now
    and then another's, each flag's value good three times in four."""
    command = draw(st.sampled_from([*CLI_FLAGS, "other"]))
    own = sorted(ARGV_VALUES.keys() & set(CLI_FLAGS.get(command, ARGV_VALUES)))
    flags = draw(st.lists(st.sampled_from(own), max_size=4))
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(sorted(ARGV_VALUES))))
    flags = ["--p"] * (draw(st.integers(0, 3)) > 0) + draw(st.permutations(flags))
    argv = [command]
    for flag in flags:
        values = ARGV_VALUES[flag][draw(st.integers(0, 3)) == 0]
        argv.append((flag, draw(st.sampled_from(values) if type(values) is list else values)))
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_every_argv_ends_in_a_defined_exit_code(drawn):
    command, *flags = drawn
    with tempfile.TemporaryDirectory() as directory:
        argv = [command]
        for flag, value in flags:
            value = os.path.join(directory, value) if flag == "--out" and value else value
            argv += [flag] if value is None else [flag, value]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert sum("error: " in line for line in err.getvalue().splitlines()) == 1, (argv, err.getvalue())


def test_cli_flags_are_pinned():
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    flags = {
        name: sorted(flag for action in command._actions for flag in action.option_strings)
        for name, command in sub.choices.items()
    }
    assert flags == CLI_FLAGS
