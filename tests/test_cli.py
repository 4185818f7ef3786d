import json
import sys

import jsonschema
import pytest

from treecount.cli import main
from treecount.schemas import (COUNT_REPORT_SCHEMA, PROFILE_SCHEMA,
                               TRANSFORM_DELTA_SCHEMA, VERIFICATION_SCHEMA)


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.tree"
    path.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
