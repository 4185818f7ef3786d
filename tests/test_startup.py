"""What a command loads at start-up, how it ends when the reader of its
stdout goes away, and that its forked shards end when it is killed.  Each
check runs in a fresh interpreter, since pytest has long since loaded
modules (``dataclasses`` among them) that the package itself must not need."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import treecount

SRC = os.path.dirname(os.path.dirname(os.path.abspath(treecount.__file__)))

# Prints the modules that ``import treecount.cli`` adds, then, after main()
# for each argv given as a JSON list, whether multiprocessing is loaded and
# what the command wrote.
CHILD = r"""
import contextlib, io, json, os, sys
before = set(sys.modules)
import treecount.cli
print(json.dumps(sorted(set(sys.modules) - before)))
os.cpu_count = lambda: 2
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = treecount.cli.main(argv)
    print(json.dumps([argv, "multiprocessing" in sys.modules, code,
                      out.getvalue(), err.getvalue()]))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(*argvs: list[str]) -> tuple[list[str], list[list]]:
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120, env=child_env(),
                          check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


@pytest.fixture
def p6_file(tmp_path):
    path = tmp_path / "p6.tree"
    path.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n")
    return str(path)


class TestImports:
    def test_cli_import_loads_no_dataclasses_or_pool(self):
        added, _ = run_child()
        assert "treecount.cli" in added
        assert "dataclasses" not in added
        assert "multiprocessing" not in added

    def test_cli_import_loads_no_csv(self):
        # only --csv output needs the csv module
        added, _ = run_child()
        assert "treecount.cli" in added and "csv" not in added

    def test_commands_without_a_pool_do_not_load_multiprocessing(self, p6_file):
        argvs = [
            ["count", "--input", p6_file],
            ["profile", "--input", p6_file, "--json"],
            ["construct", "--family", "star", "--n", "6"],
            ["construct", "--family", "a_nq", "--n", "9", "--q", "3", "--closed-form", "F"],
            ["transform", "--input", p6_file, "--kind", "B", "--u", "1", "--v", "2"],
            ["verify", "--lemma", "L3.2", "--samples", "20"],
            ["verify", "--theorem", "T4.1", "--n-max", "8", "--jobs", "1"],
            ["enumerate", "--n", "8", "--jobs", "1"],
            ["enumerate", "--n", "9", "--count-only"],
        ]
        _, rows = run_child(*argvs)
        assert [row[0] for row in rows] == argvs
        for argv, loaded, code, out, err in rows:
            assert code == 0 and out and not err, argv
            assert not loaded, argv

    def test_parallel_shards_load_no_multiprocessing_and_change_nothing(self):
        serial = ["verify", "--theorem", "T4.1", "--n-max", "8", "--jobs", "1"]
        parallel = serial[:-1] + ["2"]
        _, (one, two) = run_child(serial, parallel)
        assert (one[1], two[1]) == (False, False)
        assert one[2] == 0 and one[4] == ""
        assert two[2:] == [0, one[3].replace("jobs=1", "jobs=2"), ""]

    def test_cli_import_loads_no_oracle_or_pickle(self):
        # no command uses the brute-force oracle, and only a forked shard pickles
        added, _ = run_child()
        assert "treecount.cli" in added
        assert "treecount.oracle" not in added and "pickle" not in added


class TestClosedPipe:
    def start(self, *argv: str) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, "-m", "treecount.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env())

    def finish(self, proc: subprocess.Popen) -> tuple[int, bytes]:
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), err

    def test_reader_leaves_after_one_line(self):
        # about 220 kB of trees: far more than the pipe holds, so a write
        # after the close is certain
        proc = self.start("enumerate", "--n", "14")
        assert proc.stdout.readline() == b"14\n"
        assert self.finish(proc) == (141, b"")

    def test_reader_gone_before_the_report(self):
        # verify writes its report only at the end, so the pipe is closed first
        proc = self.start("verify", "--theorem", "T4.1", "--n-max", "10")
        assert self.finish(proc) == (141, b"")


# Runs map_shards over two shards of order 14 (303 runs) with an fn that
# prints its process id and then takes 50 ms per run, about 7 s per shard.
SLOW_CALLER = r"""
import os, time
from treecount.enumeration import map_shards
os.cpu_count = lambda: 2

def slow(_, runs):
    os.write(1, b"%d\n" % os.getpid())
    for run in runs:
        time.sleep(0.05)
        for _ in run:
            pass
    return 0

map_shards(slow, None, [14], 2)
"""


def running(pid: int) -> bool:
    """Whether pid names a live process: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the state of a process in /proc")
class TestKilledCaller:
    def test_forked_shard_ends_with_its_caller(self):
        proc = subprocess.Popen([sys.executable, "-c", SLOW_CALLER],
                                stdout=subprocess.PIPE, env=child_env())
        shard = None
        try:
            pids = {int(proc.stdout.readline()) for _ in range(2)}
            shard, = pids - {proc.pid}
            assert running(shard)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 1
            while running(shard) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not running(shard)
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
            if shard is not None and running(shard):
                os.kill(shard, signal.SIGKILL)
