import argparse
import hashlib
import json
import os
import random
import subprocess
import sys

import jsonschema
import pytest

from schemas import (COUNT_REPORT_SCHEMA, PROFILE_SCHEMA, TRANSFORM_DELTA_SCHEMA,
                     VERIFICATION_SCHEMA)
from test_startup import child_env
from treecount import cli, verify
from treecount.cli import _build_parser, main
from treecount.enumeration import TreeConstraint
from treecount.families import _SHAPES, FAMILIES, FamilySpec
from treecount.tree import Tree
from treecount.verify import THEOREM_TAGS


P5 = "5\n0 1\n1 2\n2 3\n3 4\n"
STAR6 = "6\n0 1\n0 2\n0 3\n0 4\n0 5\n"


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.tree"
    path.write_text(P5)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, stdin=b"", **popen):
    """``python -m treecount.cli`` with these bytes on stdin: (status,
    stdout, stderr), the last two as bytes."""
    done = subprocess.run([sys.executable, "-m", "treecount.cli", *argv], input=stdin,
                          capture_output=True, timeout=120, env=child_env(), **popen)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("command, fields", [("construct", FamilySpec._fields),
                                             ("enumerate", TreeConstraint._fields)])
def test_parameter_flags_are_the_record_fields(command, fields):
    """construct's family flags and enumerate's constraint flags are the
    fields of the record each builds, in field order, with no other flag in
    between."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = [a.dest for a in sub.choices[command]._actions]
    start = dests.index(fields[0])
    assert dests[start:start + len(fields)] == list(fields)


@pytest.mark.parametrize("name", ["count", "construct", "transform", "enumerate", "verify",
                                  "profile"])
def test_each_subcommand_binds_its_handler(name):
    # main runs the handler that the subcommand's parser names
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sub.choices[name].get_default("run") is getattr(cli, f"_cmd_{name}")


class TestCount:
    def test_json_output(self, capsys, p5_file):
        code, out, _ = run_cli(capsys, "count", "--input", p5_file, "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, COUNT_REPORT_SCHEMA)
        assert payload["n"] == 5 and payload["F"] == "15"
        assert payload["Fstar"] == "9" and payload["W"] == "20"

    def test_human_output(self, capsys, p5_file):
        code, out, _ = run_cli(capsys, "count", "--input", p5_file)
        assert code == 0 and "F      = 15" in out

    def test_csv_output(self, capsys, p5_file):
        code, out, _ = run_cli(capsys, "count", "--input", p5_file, "--csv")
        assert code == 0
        assert out.splitlines() == ["n,F,Fstar,W", "5,15,9,20"]

    @pytest.mark.parametrize("text, form, want", [
        ("1\n", "text", "n      = 1\nF      = 1\nFstar  = 1\nW      = 0\n"
                        "f      = 0:1\nfstar  = \n"),
        ("1\n", "--csv", "n,F,Fstar,W\n1,1,1,0\n"),
        ("1\n", "--json", '{"n": 1, "F": "1", "Fstar": "1", "W": "0", "f": {"0": "1"}, '
                          '"fstar": {}}\n'),
        ("2\n0 1\n", "text", "n      = 2\nF      = 3\nFstar  = 3\nW      = 1\n"
                             "f      = 0:2 1:2\nfstar  = 0:1 1:1\n"),
        ("2\n0 1\n", "--csv", "n,F,Fstar,W\n2,3,3,1\n"),
        ("2\n0 1\n", "--json", '{"n": 2, "F": "3", "Fstar": "3", "W": "1", '
                               '"f": {"0": "2", "1": "2"}, "fstar": {"0": "1", "1": "1"}}\n'),
        (P5, "text", "n      = 5\nF      = 15\nFstar  = 9\nW      = 20\n"
                     "f      = 0:5 1:8 2:9 3:8 4:5\nfstar  = 0:1 1:5 2:5 3:5 4:1\n"),
        (P5, "--csv", "n,F,Fstar,W\n5,15,9,20\n"),
        (P5, "--json", '{"n": 5, "F": "15", "Fstar": "9", "W": "20", '
                       '"f": {"0": "5", "1": "8", "2": "9", "3": "8", "4": "5"}, '
                       '"fstar": {"0": "1", "1": "5", "2": "5", "3": "5", "4": "1"}}\n'),
        (STAR6, "text", "n      = 6\nF      = 37\nFstar  = 36\nW      = 25\n"
                        "f      = 0:32 1:17 2:17 3:17 4:17 5:17\n"
                        "fstar  = 0:31 1:15 2:15 3:15 4:15 5:15\n"),
        (STAR6, "--csv", "n,F,Fstar,W\n6,37,36,25\n"),
        (STAR6, "--json", '{"n": 6, "F": "37", "Fstar": "36", "W": "25", '
                          '"f": {"0": "32", "1": "17", "2": "17", "3": "17", "4": "17", '
                          '"5": "17"}, "fstar": {"0": "31", "1": "15", "2": "15", '
                          '"3": "15", "4": "15", "5": "15"}}\n'),
    ])
    def test_each_form_byte_for_byte(self, capsys, tmp_path, text, form, want):
        f = tmp_path / "t.tree"
        f.write_text(text)
        got = run_cli(capsys, "count", "--input", str(f), *([form] if form != "text" else []))
        assert got == (0, want, "")

    @pytest.mark.parametrize("form, digest", [
        ("text", "96c0c63897507a56ef140bd88470087de6de3ada0358bf192d80b05be802b0b0"),
        ("--csv", "fcda7634facb698c408a78eb9b25e38f6e30a27167b0d3042a869d8bafa6bd0d"),
        ("--json", "0d5ace96ba08dc59811044add863f6cf22e7da4a05cab5db9d3e0b6af4b5f315"),
    ])
    def test_random_tree_byte_for_byte(self, capsys, tmp_path, form, digest):
        """A seeded random tree on 40 vertices, with eight-digit counts and
        labels past 9, so that the per-vertex maps run in numeric order."""
        rng = random.Random(40)
        f = tmp_path / "r40.tree"
        f.write_text("40\n" + "".join(f"{rng.randrange(v)} {v}\n" for v in range(1, 40)))
        code, out, err = run_cli(capsys, "count", "--input", str(f),
                                 *([form] if form != "text" else []))
        assert (code, err, sha256(out.encode())) == (0, "", digest)

    def test_levelseq_input(self, capsys, tmp_path):
        f = tmp_path / "star.tree"
        f.write_text("0 1 1 1\n")
        code, out, _ = run_cli(capsys, "count", "--input", str(f),
                               "--format", "levelseq", "--json")
        assert code == 0 and json.loads(out)["F"] == "11"

    def test_bad_input_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "bad.tree"
        f.write_text("4\n0 1\n1 2\n2 0\n")
        code, _, err = run_cli(capsys, "count", "--input", str(f))
        assert code == 2 and "count" in err

    @pytest.mark.parametrize("text, message", [
        ("4\n0 9\n1 2\nx y\n", "edge (0, 9) outside 0..3"),
        ("4\nx y\n1 2\n0 9\n", "bad edge line: 'x y'"),
    ])
    def test_first_faulty_line_is_reported(self, capsys, tmp_path, text, message):
        f = tmp_path / "bad.tree"
        f.write_text(text)
        code, out, err = run_cli(capsys, "count", "--input", str(f))
        assert (code, out, err) == (2, "", f"treecount count: {message}\n")


class TestInput:
    @pytest.mark.parametrize("text, fmt, message", [
        ("", "edgelist", "empty input"),
        ("", "levelseq", "empty input"),
        ("0\n", "edgelist", "vertex count must be positive"),
        ("1 2 2\n", "levelseq", "level sequence must start at depth 0"),
        ("0 1 x\n", "levelseq", "level sequence entries must be integers"),
        ("3\n0 \u0661\n1 2\n", "edgelist",   # a UTF-8 digit: tree files are ASCII
         "'ascii' codec can't decode byte 0xd9 in position 4: ordinal not in range(128)"),
    ])
    @pytest.mark.parametrize("command", ["count", "profile"])
    def test_bad_input_is_one_line(self, capsys, tmp_path, command, text, fmt, message):
        f = tmp_path / "bad.tree"
        f.write_text(text, encoding="utf-8")
        got = run_cli(capsys, command, "--input", str(f), "--format", fmt)
        assert got == (2, "", f"treecount {command}: {message}\n")

    @pytest.mark.parametrize("command", ["count", "profile", "transform"])
    def test_stdin_is_read_for_dash(self, p5_file, command):
        argv = [command, "--json"] + (["--kind", "B", "--u", "1", "--v", "2"]
                                      if command == "transform" else [])
        want = run_module(*argv, "--input", p5_file)
        with open(p5_file, "rb") as fh:
            assert run_module(*argv, "--input", "-", stdin=fh.read()) == want
        assert want[0] == 0

    def test_dash_reads_as_a_file_does(self, tmp_path):
        # same status, stdout and stderr from the bytes on stdin as from the
        # file: ASCII only, and LF, CRLF or CR line endings
        inputs = {**_FUZZ_INPUTS, "utf8-digit": "3\n0 \u0661\n1 2\n".encode(),
                  "cr-only": b"3\r0 1\r1 2\r"}
        differ, codes = [], set()
        for name, data in inputs.items():
            path = tmp_path / name
            path.write_bytes(data)
            for fmt in ("edgelist", "levelseq"):
                argv = ["count", "--format", fmt, "--input"]
                want = run_module(*argv, str(path))
                codes.add(want[0])
                if run_module(*argv, "-", stdin=data) != want:
                    differ.append((name, fmt))
        assert differ == [] and codes == {0, 2}

    def test_dash_leaves_descriptor_0_open(self, capsys, p5_file):
        # main reads the caller's descriptor 0 and leaves it open for the caller
        want = run_cli(capsys, "count", "--input", p5_file)
        saved = os.dup(0)
        try:
            with open(p5_file, "rb") as fh:
                os.dup2(fh.fileno(), 0)
            assert run_cli(capsys, "count", "--input", "-") == want
            os.fstat(0)
        finally:
            os.dup2(saved, 0)
            os.close(saved)

    def test_closed_stdin_is_a_usage_error(self):
        code, out, err = run_module("count", "--input", "-", preexec_fn=lambda: os.close(0))
        assert (code, out) == (2, b"") and err.startswith(b"treecount count: ")
        assert err.count(b"\n") == 1 and err.endswith(b"\n") and b"Traceback" not in err


class TestConstruct:
    def test_closed_form_line(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "a_nq",
                               "--n", "6", "--q", "2", "--closed-form", "F")
        assert code == 0 and out == "30 (Theorem 4.1)\n"

    def test_edgelist_output_parses(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "spider",
                               "--n", "7", "--k", "3")
        assert code == 0
        from treecount.tree import parse_tree
        assert parse_tree(out).n == 7

    def test_levelseq_output(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "star",
                               "--n", "4", "--format", "levelseq")
        assert code == 0 and out == "0 1 1 1\n"

    def test_levelseq_deep_path(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "path",
                               "--n", "3000", "--format", "levelseq")
        assert code == 0
        assert out.split() == [str(d) for d in (0, *range(1, 1500), *range(1, 1501))]

    def test_closed_form_past_int_str_limit(self, capsys):
        # main lifts the process-wide limit while it runs and puts back the one
        # it found, which is set here so that no earlier test can have left 0
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, out, _ = run_cli(capsys, "construct", "--family", "star",
                                   "--n", "20000", "--closed-form", "F")
            assert code == 0 and sys.get_int_max_str_digits() == 5000
            value, _ = out.split(" ", 1)
            sys.set_int_max_str_digits(0)
            assert value == str(2 ** 19999 + 19999)
        finally:
            sys.set_int_max_str_digits(before)

    def test_missing_formula_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--family", "star", "--n", "2",
                                 "--closed-form", "Fstar")
        assert code == 2 and out == ""
        assert err == "treecount construct: star leaf-subtree form needs n >= 3\n"

    def test_bad_params_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--family", "a_nq",
                               "--n", "5", "--q", "3")
        assert code == 2 and "construct" in err

    @pytest.mark.parametrize("extra", [(), ("--closed-form", "F")])
    def test_corona_conflicting_n_usage_error(self, capsys, extra):
        code, out, err = run_cli(capsys, "construct", "--family", "corona_path",
                                 "--m", "3", "--n", "100", *extra)
        assert code == 2 and out == "" and "n=100" in err

    @pytest.mark.parametrize("argv, named", [
        (("--family", "path", "--n", "4", "--q", "3", "--delta", "9"), "'q', 'delta'"),
        (("--family", "star", "--n", "4", "--m", "7", "--closed-form", "F"), "'m'"),
    ])
    def test_unread_parameter_usage_error(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "construct", *argv)
        assert code == 2 and out == "" and named in err


class TestTransform:
    def test_b_transform_delta(self, capsys, tmp_path):
        f = tmp_path / "p4.tree"
        f.write_text("4\n0 1\n1 2\n2 3\n")
        code, out, _ = run_cli(capsys, "transform", "--kind", "B",
                               "--input", str(f), "--u", "1", "--v", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, TRANSFORM_DELTA_SCHEMA)
        assert payload["F_before"] == "10" and payload["F_after"] == "11"
        assert payload["Fstar_before"] == "7" and payload["Fstar_after"] == "10"

    def test_human_mode_prints_tree_then_delta(self, capsys, p5_file):
        code, out, _ = run_cli(capsys, "transform", "--kind", "A",
                               "--input", p5_file, "--u", "1", "--component-root", "0")
        assert code == 0 and out.startswith("5\n")

    @pytest.mark.parametrize("argv, text, as_json", [
        (["--kind", "A", "--u", "1", "--component-root", "0"],
         '5\n0 1\n0 4\n1 2\n2 3\n{"F_before": "15", "F_after": "15", '
         '"Fstar_before": "9", "Fstar_after": "9"}\n',
         '{"tree": "5\\n0 1\\n0 4\\n1 2\\n2 3\\n", "F_before": "15", "F_after": "15", '
         '"Fstar_before": "9", "Fstar_after": "9"}\n'),
        (["--kind", "B", "--u", "1", "--v", "2"],
         '5\n0 1\n1 2\n1 4\n2 3\n{"F_before": "15", "F_after": "17", '
         '"Fstar_before": "9", "Fstar_after": "14"}\n',
         '{"tree": "5\\n0 1\\n1 2\\n1 4\\n2 3\\n", "F_before": "15", "F_after": "17", '
         '"Fstar_before": "9", "Fstar_after": "14"}\n'),
    ])
    def test_each_form_byte_for_byte(self, capsys, p5_file, argv, text, as_json):
        assert run_cli(capsys, "transform", "--input", p5_file, *argv) == (0, text, "")
        got = run_cli(capsys, "transform", "--input", p5_file, *argv, "--json")
        assert got == (0, as_json, "")


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "7", "--count-only")
        assert code == 0 and out == "11\n"

    def test_constrained_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "6",
                               "--matching", "2", "--count-only")
        assert code == 0 and out == "3\n"

    def test_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 2 and all(b.startswith("4\n") for b in blocks)

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,edges" and len(lines) == 3

    def test_jobs_do_not_change_output(self, capsys):
        flags = ([], ["--matching", "3"], ["--domination", "3"], ["--diameter", "4"],
                 ["--leaves", "4"], ["--min-max-degree", "4"], ["--perfect-matching"])
        for flag in flags:
            outs = {}
            for mode in ([], ["--count-only"], ["--csv"]):
                for jobs in ("1", "2", "3", "64"):
                    code, out, err = run_cli(capsys, "enumerate", "--n", "11", *flag,
                                             *mode, "--jobs", jobs)
                    assert code == 0 and err == ""
                    outs.setdefault(tuple(mode), set()).add(out)
            assert all(len(o) == 1 for o in outs.values()), flag
            (blocks,), (count,), (rows,) = outs.values()
            # n = 11 is odd, so only the perfect-matching class is empty
            assert int(count) == blocks.count("11\n") == len(rows.splitlines()) - 1
            assert (int(count) == 0) == (flag == ["--perfect-matching"])

    @pytest.mark.parametrize("mode", [[], ["--count-only"], ["--csv"]])
    @pytest.mark.parametrize("jobs, children", [("1", 0), ("2", 1), ("3", 2)])
    def test_each_extra_shard_is_one_child(self, capsys, monkeypatch, forks, mode, jobs,
                                           children):
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        code, _, err = run_cli(capsys, "enumerate", "--n", "9", *mode, "--jobs", jobs)
        assert (code, err, len(forks)) == (0, "", children)

    def test_order_cap_is_fixed(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "25", "--max-order", "30"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run_cli(capsys, "enumerate", "--n", "6", "--jobs", jobs)
        assert code == 2 and out == "" and "jobs" in err

    def test_failed_fork_is_a_usage_error(self, capsys, monkeypatch, no_fork):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        got = run_cli(capsys, "enumerate", "--n", "8", "--count-only", "--jobs", "2")
        assert got == (2, "", "treecount enumerate: [Errno 11] Resource temporarily "
                              "unavailable\n")


class TestVerify:
    def test_passing_run_exit_zero(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--theorem", "T4.3",
                               "--n-min", "4", "--n-max", "10",
                               "--json", str(report))
        assert code == 0
        assert "# theorem=T4.3" in out and "FAIL" not in out
        payload = json.loads(report.read_text())
        jsonschema.validate(payload, VERIFICATION_SCHEMA)
        assert all(row["pass"] for row in payload)

    @pytest.mark.parametrize("argv", [["--theorem", "T4.7", "--n-max", "6"],
                                      ["--lemma", "L3.2", "--samples", "5"]])
    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unopenable_report_path_fails_before_the_scan(self, capsys, monkeypatch,
                                                          tmp_path, argv, where):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before opening the report path")

        monkeypatch.setattr("treecount.cli.verify_theorem", no_scan)
        monkeypatch.setattr("treecount.cli.run_lemma_suite", no_scan)
        path = tmp_path if where == "directory" else tmp_path / "absent" / "r.json"
        code, out, err = run_cli(capsys, "verify", *argv, "--json", str(path))
        assert code == 2 and out == "" and str(path) in err

    @pytest.mark.parametrize("argv, message", [
        (["--theorem", "T4.1", "--n-max", "6", "--jobs", "0"], "jobs must be >= 1, got 0"),
        (["--lemma", "L3.2", "--samples", "0"], "samples must be >= 1"),
    ])
    def test_usage_error_leaves_report_path_alone(self, capsys, tmp_path, argv, message):
        path = tmp_path / "r.json"
        path.write_text("keep\n")
        code, out, err = run_cli(capsys, "verify", *argv, "--json", str(path))
        assert code == 2 and out == "" and message in err
        assert path.read_text() == "keep\n"

    def test_failing_run_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "T4.8",
                               "--n-min", "3", "--n-max", "3",
                               "--formula-variant", "product")
        assert code == 1 and "FAIL" in out

    def assert_internal_error(self, capsys, argv, message):
        """Status 3, not a failed claim's 1: one stderr line, no report."""
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 3 and out == ""
        assert err.splitlines() == [f"treecount verify: internal error: {message}"]

    _SHARDED = ["--theorem", "T4.1", "--n-min", "8", "--n-max", "8", "--jobs", "2"]
    _PATH_COMPARISON = ["--lemma", "path-comparison", "--samples", "50", "--seed", "5"]

    @staticmethod
    def vanish_in_child(monkeypatch):
        """The forked shard leaves as one killed from outside would, before replying."""
        parent, scan = os.getpid(), verify._scan_shard

        def vanish(tag, seqs):
            if os.getpid() != parent:
                os._exit(3)
            return scan(tag, seqs)

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(verify, "_scan_shard", vanish)

    @staticmethod
    def break_generator(monkeypatch):
        """Sides grown into a single vertex break the suite's own hypothesis."""
        monkeypatch.setattr(verify, "_grow", lambda t, root, rng, extra: (Tree(1, []), 0))

    def test_shard_without_a_result_is_an_internal_error(self, capsys, monkeypatch):
        self.vanish_in_child(monkeypatch)
        self.assert_internal_error(capsys, self._SHARDED,
                                   "shard 1 of 2 ended with no result (exit status 3)")

    def test_broken_lemma_generator_is_an_internal_error(self, capsys, monkeypatch):
        self.break_generator(monkeypatch)
        self.assert_internal_error(
            capsys, self._PATH_COMPARISON,
            "path-comparison seed 5: the instance generator broke the side-domination "
            "hypothesis")

    def report_run(self, capsys, tmp_path, argv, before):
        """verify with --json PATH, PATH alone in its directory and holding
        ``before`` (None: absent); (status, stdout, PATH's bytes or None, the
        directory's files)."""
        path = tmp_path / "out" / "r.json"
        path.parent.mkdir()
        if before is not None:
            path.write_bytes(before)
        code, out, _ = run_cli(capsys, "verify", *argv, "--json", str(path))
        after = path.read_bytes() if path.exists() else None
        return code, out, after, sorted(os.listdir(path.parent))

    @pytest.mark.parametrize("failure", ["broken generator", "vanished shard"])
    def test_internal_error_leaves_report_path_alone(self, capsys, monkeypatch, tmp_path,
                                                     failure):
        if failure == "broken generator":
            self.break_generator(monkeypatch)
            argv = self._PATH_COMPARISON
        else:
            self.vanish_in_child(monkeypatch)
            argv = self._SHARDED
        got = self.report_run(capsys, tmp_path, argv, b"keep\n")
        assert got == (3, "", b"keep\n", ["r.json"])

    @pytest.mark.parametrize("argv", [["--theorem", "T4.1", "--n-max", "6", "--jobs", "0"],
                                      ["--lemma", "L3.2", "--samples", "0"],
                                      _SHARDED],
                             ids=["jobs 0", "samples 0", "no pipe for a shard"])
    def test_usage_error_leaves_absent_report_path_absent(self, capsys, monkeypatch,
                                                          tmp_path, argv):
        # the sharded run fails mid-scan: its shard finds no pipe to reply through
        def no_pipe():
            raise OSError(24, "Too many open files")

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr("os.pipe", no_pipe)
        assert self.report_run(capsys, tmp_path, argv, None) == (2, "", None, [])

    def test_interrupt_leaves_report_path_alone(self, monkeypatch, tmp_path):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr("treecount.cli.run_lemma_suite", interrupted)
        monkeypatch.setattr("treecount.cli.open", recording_open, raising=False)
        path = tmp_path / "r.json"
        path.write_bytes(b"keep\n")
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--lemma", "L3.2", "--json", str(path)])
        assert path.read_bytes() == b"keep\n" and os.listdir(tmp_path) == ["r.json"]
        assert len(opened) == 1 and opened[0].closed

    def test_stale_part_file_is_overwritten(self, capsys, tmp_path):
        # one left by an earlier run of the same pid that was killed outright
        path = tmp_path / "r.json"
        (tmp_path / f"r.json.{os.getpid()}.part").write_bytes(b"stale\n")
        code, _, _ = run_cli(capsys, "verify", "--theorem", "T4.8", "--n-max", "8",
                             "--formula-variant", "product", "--json", str(path))
        assert code == 1 and os.listdir(tmp_path) == ["r.json"]
        assert sha256(path.read_bytes()) == _PRODUCT_REPORT_SHA256[0]

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unopenable_report_path_message(self, capsys, tmp_path, where):
        path = tmp_path if where == "directory" else tmp_path / "absent" / "r.json"
        code, _, err = run_cli(capsys, "verify", "--lemma", "L3.2", "--json", str(path))
        assert code == 2
        assert err == f"treecount verify: {path} is not a file in an existing directory\n"

    def test_failed_claim_replaces_report(self, capsys, tmp_path):
        code, out, after, files = self.report_run(
            capsys, tmp_path, ["--theorem", "T4.8", "--n-max", "8",
                               "--formula-variant", "product"], b"keep\n")
        assert code == 1 and "FAIL" in out and files == ["r.json"]
        assert sha256(after) == _PRODUCT_REPORT_SHA256[0]

    def test_report_replaces_a_symlinked_paths_target(self, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_bytes(b"keep\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code, _, _ = run_cli(capsys, "verify", "--theorem", "T4.8", "--n-max", "8",
                             "--formula-variant", "product", "--json", str(link))
        assert code == 1 and link.is_symlink()
        assert sha256(target.read_bytes()) == _PRODUCT_REPORT_SHA256[0]
        assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]

    def test_lemma_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--lemma", "L3.2",
                               "--samples", "40", "--seed", "42")
        assert code == 0 and "# lemma=L3.2 samples=40 seed=42" in out

    @pytest.mark.parametrize("argv, stray", [
        (["--lemma", "L3.2", "--samples", "5", "--jobs", "0", "--n-min", "9",
          "--n-max", "5"], ["--jobs", "--n-min", "--n-max"]),
        (["--lemma", "L3.2", "--jobs", "1"], ["--jobs"]),
        (["--lemma", "L3.3", "--n-min", "4"], ["--n-min"]),
        (["--lemma", "L3.1", "--n-max", "8"], ["--n-max"]),
        (["--lemma", "L3.2", "--formula-variant", "sum"], ["--formula-variant"]),
        (["--theorem", "T4.4", "--n-max", "6", "--samples", "0", "--seed", "4"],
         ["--samples", "--seed"]),
        (["--theorem", "T4.1", "--n-max", "6", "--seed", "0"], ["--seed"]),
    ])
    def test_flags_of_other_mode_rejected(self, capsys, argv, stray):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"treecount verify: {' '.join(stray)} cannot be used with {argv[0]}\n"

    @pytest.mark.parametrize("argv, header", [
        (["--lemma", "L3.2", "--samples", "40"], "# lemma=L3.2 samples=40 seed=0"),
        (["--lemma", "L3.2", "--seed", "3"], "# lemma=L3.2 samples=300 seed=3"),
        (["--theorem", "T4.4", "--n-max", "6"], "# theorem=T4.4 n=6..6 jobs=1 formula=sum"),
    ])
    def test_defaults_fill_the_header(self, capsys, argv, header):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0 and out.splitlines()[0] == header

    @pytest.mark.parametrize("argv, rows", [
        (["--lemma", "L3.2", "--samples", "5", "--seed", "1"],
         ['pass L3.2 {"samples": 5, "seed": 1}']),
        (["--lemma", "L3.2", "--samples", "5", "--seed", "1", "--csv"],
         ["theorem,n,constraint,claimed,achieved,result",
          'L3.2,,"{""samples"": 5, ""seed"": 1}",,,pass']),
        (["--theorem", "T4.4", "--n-max", "6"],
         ['pass T4.4 n=6 {"gamma": 2, "quantity": "F"} claimed=21 achieved=21 class=4',
          'pass T4.4 n=6 {"gamma": 2, "quantity": "Fstar"} claimed=11 achieved=11 class=4']),
        (["--theorem", "T4.4", "--n-max", "6", "--csv"],
         ["theorem,n,constraint,claimed,achieved,result",
          'T4.4,6,"{""gamma"": 2, ""quantity"": ""F""}",21,21,pass',
          'T4.4,6,"{""gamma"": 2, ""quantity"": ""Fstar""}",11,11,pass']),
    ])
    def test_rows_of_each_mode(self, capsys, argv, rows):
        # a lemma row has no order, claim or class; a theorem row has all three
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0 and out.splitlines()[1:-1] == rows

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="neither"),
        pytest.param(["--theorem", "T4.1", "--lemma", "L3.2"], id="both"),
    ])
    @pytest.mark.parametrize("report", [False, True], ids=["no-json", "json"])
    def test_requires_exactly_one_target(self, capsys, tmp_path, argv, report):
        # argparse refuses the argv before any work: a --json PATH keeps its bytes
        path = tmp_path / "r.json"
        path.write_bytes(b"keep\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv, *(["--json", str(path)] if report else [])])
        out, err = capsys.readouterr()
        message = err.splitlines()[-1]
        assert exc.value.code == 2 and out == "" and "Traceback" not in err
        assert "--theorem" in message and "--lemma" in message
        assert path.read_bytes() == b"keep\n" and list(tmp_path.iterdir()) == [path]

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--theorem", "T4.1",
                             "--n-min", "5", "--n-max", "8")
        _, out2, _ = run_cli(capsys, "verify", "--theorem", "T4.1",
                             "--n-min", "5", "--n-max", "8", "--jobs", "2")
        assert out1.replace("jobs=1", "jobs=2") == out2

    @pytest.mark.parametrize("tag, lo, hi", [("T4.1", "9", "5"), ("T4.3", "5", "5")])
    def test_empty_range_rejected(self, capsys, tag, lo, hi):
        code, out, err = run_cli(capsys, "verify", "--theorem", tag,
                                 "--n-min", lo, "--n-max", hi)
        assert code == 2 and "checks passed" not in out and tag in err

    def test_orders_past_the_cap_rejected(self, capsys):
        # rejected before n=20..24 (tens of millions of trees) are scanned
        code, out, err = run_cli(capsys, "verify", "--theorem", "T4.1",
                                 "--n-min", "20", "--n-max", "30")
        assert code == 2 and out == "" and "24" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run_cli(capsys, "verify", "--theorem", "T4.1",
                                 "--n-min", "5", "--n-max", "6", "--jobs", jobs)
        assert code == 2 and "checks passed" not in out and "jobs" in err

    @pytest.mark.parametrize("tag, lo, hi, orders", [("T4.4", "2", "6", [6]),
                                                     ("T4.1", "0", "4", [3, 4]),
                                                     ("T4.6", "5", "11", [6, 8, 10])])
    def test_header_shows_checked_orders(self, capsys, tag, lo, hi, orders):
        code, out, _ = run_cli(capsys, "verify", "--theorem", tag,
                               "--n-min", lo, "--n-max", hi)
        lines = out.splitlines()
        assert code == 0 and lines[0].split()[2] == f"n={orders[0]}..{orders[-1]}"
        assert sorted({int(line.split()[2][2:]) for line in lines[1:-1]}) == orders

    def test_csv_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "L2star",
                               "--n-min", "3", "--n-max", "5", "--csv")
        assert code == 0
        assert out.splitlines()[1].startswith("theorem,n,constraint")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of (the --json file, stdout after its header line) of verify --theorem
# TAG at the tag's default range, taken from the reports as they were before
# the scan carried one record per class
_THEOREM_REPORT_SHA256 = {
    "T4.1": ("e205465e5356809eb888d58fcfab9567bd10babcd2485829e8fed47479c98daf",
             "a9467845464ac479cce00548f18c1342b19ba13f837b2ce4231f009ccf6fbffc"),
    "T4.2": ("636c1bb4c5ce85793a32406f8a71ff8842c81241d574a44c51078144a243028e",
             "b6c57e58f3c8b73f076bfcf28e9fe33b5cdc6de721aa5fd47badb417b9b9810e"),
    "T4.3": ("0127d7bafb1f59875790a64312274839a81eed5cacccaa8f8ba126ed90209b5c",
             "d9d53640197ce85725ae33db5cd9f5a021e8c6cf6d4e46205435cbcd9a3b5fe7"),
    "T4.4": ("f84cfdf6d81955eba145c61cd54d16f1e613d7070e2d3160c27ff958631f303d",
             "7692c5f81d3e5a460d90d23c090c21b4e363ce465ae46c7b6d4ae0921ce35758"),
    "T4.5": ("cd829219fe75024103bbaedf20246bea5f93da969af21d897864d432e494b17b",
             "f920708e910cc311b1e5ebb5a8031ea1b16b137b4003bfe86007de57df7ba3c9"),
    "T4.6": ("f832b12ac6445b2fb3666bae27a70cb30be54c00d1499fdb47615f8e0014156d",
             "23dd1ec990a0fa0909d2a02ef4c1c4b59937c4e5a6ac8802175a9cedb5b849a9"),
    "T4.7": ("ff4b8753cb56c8e9e9ba93fad711053be2aca73f56ea5bba76adb93d206506bf",
             "ea1d1398babc3f75785bac8276441831b0473aff13c307d55d06a765d18ac85b"),
    "T4.8": ("bf8ae148caf84bc3a58e3e388a296ac0bf781d608cd8b0f95846cf05cc2c0f04",
             "8e541442894b850bc8849a5cd39ab95c6176504011f8a67f050856830f3adf51"),
    "L2star": ("01c147003f664600d38fe85f2a58f433cdcbb2cc5955726647e240b0cb966d2e",
               "2ef02db6495bc12d04d35ce8a7f1e835e3c879784c09c16cd64c35d08a946257"),
}
_PRODUCT_REPORT_SHA256 = (
    "d0cd0258ef23c8db894690b0ef51b746f723baa34c6b488c708ab3867f35cf4a",
    "3dcfba1129c0ece13d005a42598aaf4bdb7991409d709dadabd858ce812aff2a")
# sha256 of the stdout of enumerate --n 12, as text and with --csv
_LISTING_SHA256 = {
    "text": "9bbf186afc015e8ecd3bdc235899a46b4b4a577b902875bacfd74a208b8bb4e0",
    "--csv": "53332ac8355f8fd13499b4a70bca289e0a23cbabb3269492220b8c43b4629d84",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
class TestReportsPinned:
    """Whole reports held byte for byte to recorded copies, at each jobs
    setting."""

    def report(self, capsys, tmp_path, *argv):
        path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "verify", *argv, "--json", str(path))
        return code, err, sha256(path.read_bytes()), sha256(out.split("\n", 1)[1].encode())

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_theorem_at_default_range(self, capsys, tmp_path, tag, jobs):
        got = self.report(capsys, tmp_path, "--theorem", tag, "--jobs", jobs)
        assert got == (0, "", *_THEOREM_REPORT_SHA256[tag])

    def test_failing_product_reading(self, capsys, tmp_path, jobs):
        got = self.report(capsys, tmp_path, "--theorem", "T4.8", "--n-max", "8",
                          "--formula-variant", "product", "--jobs", jobs)
        assert got == (1, "", *_PRODUCT_REPORT_SHA256)

    @pytest.mark.parametrize("form", ["text", "--csv"])
    def test_listing(self, capsys, form, jobs):
        flags = [] if form == "text" else [form]
        code, out, err = run_cli(capsys, "enumerate", "--n", "12", *flags, "--jobs", jobs)
        assert (code, err, sha256(out.encode())) == (0, "", _LISTING_SHA256[form])


class TestProfile:
    def test_json(self, capsys, p5_file):
        code, out, _ = run_cli(capsys, "profile", "--input", p5_file, "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, PROFILE_SCHEMA)
        assert payload["diameter"] == 4 and payload["centers"] == [2]

    def test_human(self, capsys, p5_file):
        code, out, _ = run_cli(capsys, "profile", "--input", p5_file)
        assert code == 0 and "matching = 2" in out

    @pytest.mark.parametrize("edges, row", [
        ("0 1\n1 2\n2 3\n3 4\n", "2,2,4,2,2,2,False"),
        ("0 1\n0 2\n0 3\n3 4\n", "2,2,3,3,3,0 3,False"),
    ])
    def test_csv(self, capsys, tmp_path, edges, row):
        f = tmp_path / "t.tree"
        f.write_text("5\n" + edges)
        code, out, err = run_cli(capsys, "profile", "--input", str(f), "--csv")
        header = "matching,domination,diameter,leafCount,maxDegree,centers,hasPerfectMatching"
        assert (code, out, err) == (0, f"{header}\n{row}\n", "")


class TestOutputFlagsNotHonoured:
    """An output flag that a command would ignore is a usage error."""

    @pytest.mark.parametrize("argv, named", [
        (["transform", "--kind", "B", "--u", "1", "--v", "2", "--csv"], "--csv"),
        (["count", "--json", "--csv"], "not allowed with argument --json"),
        (["count", "--csv", "--json"], "not allowed with argument --csv"),
        (["profile", "--json", "--csv"], "not allowed with argument --json"),
        (["profile", "--csv", "--json"], "not allowed with argument --csv"),
        (["enumerate", "--n", "5", "--count-only", "--csv"],
         "not allowed with argument --count-only"),
    ])
    def test_refused(self, capsys, p5_file, argv, named):
        if argv[0] != "enumerate":
            argv = [argv[0], "--input", p5_file, *argv[1:]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and named in err


# the values of the size flags; orders past the enumeration cap are tried only
# where the command refuses them before any work
_FUZZ_SIZES = (-3, -1, 0, 1, 2, 3, 5, 8, 12)
_FUZZ_ORDERS = _FUZZ_SIZES + (25, 10**6)
# the trees in either format, then the faulty files
_FUZZ_TREES = {
    "p5": b"5\n0 1\n1 2\n2 3\n3 4\n",
    "spider": b"8\n0 1\n0 2\n0 3\n1 4\n2 5\n3 6\n6 7\n",
    "one-vertex": b"1\n",
    "star-levelseq": b"0 1 1 1\n",
    "spider-levelseq": b"0 1 2 1 2 1 2 3\n",
}
_FUZZ_INPUTS = {
    **_FUZZ_TREES,
    "empty": b"",
    "bad-header": b"x\n0 1\n",
    "too-few-lines": b"4\n0 1\n1 2\n",
    "too-many-lines": b"3\n0 1\n1 2\n0 2\n",
    "self-loop": b"3\n0 0\n1 2\n",
    "duplicate-edge": b"3\n0 1\n0 1\n",
    "label-out-of-range": b"3\n0 1\n1 7\n",
    "non-ascii": b"3\n0 1\n1 \xe9\n",
    "crlf": b"5\r\n0 1\r\n1 2\r\n2 3\r\n3 4\r\n",
    "bad-depth": b"0 1 3\n",
}


def _fuzz_argvs(rng, tmp_path):
    """400 argv over the six subcommands, each with a random subset of
    its command's flags (a required one is left out now and then)."""
    paths = [str(tmp_path / name) for name in _FUZZ_INPUTS] + [str(tmp_path / "absent")]
    trees = [str(tmp_path / name) for name in _FUZZ_TREES]
    size = lambda: [str(rng.choice(_FUZZ_SIZES))]
    order = lambda: [str(rng.choice(_FUZZ_ORDERS))]
    vertex = lambda: [str(rng.randrange(-1, 9))]
    pick = lambda *choices: lambda: [rng.choice(choices)]
    flag = lambda: []
    io_flags = {"--input": lambda: [rng.choice(trees if rng.random() < 0.5 else paths)],
                "--format": pick("edgelist", "levelseq"), "--json": flag}
    commands = {
        "count": dict(io_flags, **{"--csv": flag}),
        "profile": dict(io_flags, **{"--csv": flag}),
        "transform": dict(io_flags, **{"--kind": pick("A", "B", "C", "Cprime", "D"),
                                       "--u": vertex, "--v": vertex,
                                       "--component-root": vertex}),
        "construct": {"--family": pick(*FAMILIES, "tree"),
                      **{f"--{field}": size for field in FamilySpec._fields[1:]},
                      "--closed-form": pick("F", "Fstar"),
                      "--format": pick("edgelist", "levelseq")},
        "enumerate": {"--n": order,
                      **{"--" + field.replace("_", "-"): size
                         for field in TreeConstraint._fields if field != "perfect_matching"},
                      "--perfect-matching": flag, "--count-only": flag, "--csv": flag,
                      "--jobs": size},
        "verify": {"--theorem": pick(*THEOREM_TAGS), "--lemma": pick(*verify.LEMMA_TAGS),
                   "--n-min": order, "--n-max": order, "--jobs": size,
                   "--samples": pick("-1", "0", "1", "3", "20"), "--seed": size,
                   "--formula-variant": pick("sum", "product"),
                   "--json": lambda: [str(tmp_path / rng.choice(("report.json", "absent/r.json",
                                                                 "")))],
                   "--csv": flag},
    }
    # the flags each mode reads: a flag that only another mode reads is drawn
    # rarely, so that most argv get past the usage checks to the work
    reads = {
        "construct": {fam: {f"--{field}" for field in _SHAPES[fam][0]} for fam in FAMILIES},
        "transform": {"A": {"--u", "--component-root"}, "B": {"--u", "--v"},
                      "C": {"--v"}, "Cprime": {"--v"}},
        "verify": {"--theorem": {"--theorem", "--n-min", "--n-max", "--jobs",
                                 "--formula-variant"},
                   "--lemma": {"--lemma", "--samples", "--seed"}},
    }
    required = {"--input", "--family", "--kind", "--n"}
    argvs = []
    for _ in range(400):
        command = rng.choice(sorted(commands))
        values = {f: draw() for f, draw in commands[command].items()}
        modes = reads.get(command, {})
        if command == "verify":
            mode = rng.choice(("--theorem", "--lemma"))
        else:
            mode = (values.get("--family") or values.get("--kind") or [None])[0]
        modal = set().union(*modes.values())
        wanted = required | modes.get(mode, set())
        flags = [f for f in values
                 if rng.random() < (0.9 if f in wanted else 0.05 if f in modal else 0.35)]
        rng.shuffle(flags)
        argvs.append([command] + [tok for f in flags for tok in (f, *values[f])])
    return argvs


def test_cli_fuzz(capsys, tmp_path):
    """Seeded random argv over every subcommand, bad input files included,
    end in status 0, 1 or 2 with no traceback, and leave no part file."""
    for name, data in _FUZZ_INPUTS.items():
        (tmp_path / name).write_bytes(data)
    for argv in _fuzz_argvs(random.Random(35), tmp_path):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
    assert not list(tmp_path.glob("*.part"))
