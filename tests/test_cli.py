import argparse
import hashlib
import json
import os
import sys

import jsonschema
import pytest

from treecount import verify
from treecount.cli import _build_parser, main
from treecount.enumeration import TreeConstraint
from treecount.families import FamilySpec
from treecount.schemas import (COUNT_REPORT_SCHEMA, PROFILE_SCHEMA,
                               TRANSFORM_DELTA_SCHEMA, VERIFICATION_SCHEMA)
from treecount.tree import Tree
from treecount.verify import THEOREM_TAGS


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.tree"
    path.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        before = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "construct", "--family", "star",
                               "--n", "20000", "--closed-form", "F")
        assert code == 0 and sys.get_int_max_str_digits() == before
        value, _ = out.split(" ", 1)
        sys.set_int_max_str_digits(0)
        try:
            assert value == str(2 ** 19999 + 19999)
        finally:
            sys.set_int_max_str_digits(before)

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

    def test_order_cap_is_fixed(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "25", "--max-order", "30"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run_cli(capsys, "enumerate", "--n", "6", "--jobs", jobs)
        assert code == 2 and out == "" and "jobs" in err


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

    def test_shard_without_a_result_is_an_internal_error(self, capsys, monkeypatch):
        # the forked shard leaves as one killed from outside would, before replying
        parent, scan = os.getpid(), verify._scan_shard

        def vanish_in_child(tag, seqs):
            if os.getpid() != parent:
                os._exit(3)
            return scan(tag, seqs)

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(verify, "_scan_shard", vanish_in_child)
        self.assert_internal_error(
            capsys, ["--theorem", "T4.1", "--n-min", "8", "--n-max", "8", "--jobs", "2"],
            "shard 1 of 2 ended with no result (exit status 3)")

    def test_broken_lemma_generator_is_an_internal_error(self, capsys, monkeypatch):
        # sides grown into a single vertex break the suite's own hypothesis
        monkeypatch.setattr(verify, "_grow", lambda t, root, rng, extra: (Tree(1, []), 0))
        self.assert_internal_error(
            capsys, ["--lemma", "path-comparison", "--samples", "50", "--seed", "5"],
            "path-comparison seed 5: the instance generator broke the side-domination "
            "hypothesis")

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
        assert all(flag in err for flag in stray)

    @pytest.mark.parametrize("argv, header", [
        (["--lemma", "L3.2", "--samples", "40"], "# lemma=L3.2 samples=40 seed=0"),
        (["--lemma", "L3.2", "--seed", "3"], "# lemma=L3.2 samples=300 seed=3"),
        (["--theorem", "T4.4", "--n-max", "6"], "# theorem=T4.4 n=6..6 jobs=1 formula=sum"),
    ])
    def test_defaults_fill_the_header(self, capsys, argv, header):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0 and out.splitlines()[0] == header

    def test_requires_exactly_one_target(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2 and "--theorem/--lemma" in err

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
