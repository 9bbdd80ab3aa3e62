"""The aggregation of scripts/bench.py on fixed numbers."""

import hashlib
import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(failed=0, **values):
    return {"failed": failed, "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_summarize_quartiles(bench):
    s = bench.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.0, 3.0, 4.0)
    assert s["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]
    one = bench.summarize([7.0])
    assert (one["q1"], one["median"], one["q3"]) == (7.0, 7.0, 7.0)


def test_aggregate_pairs_and_directions(bench):
    specs = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "frac", "unit": "ratio", "better": "higher", "bound": 0.1},
    ]
    parent = [result(wall_s=10.0, frac=0.5), result(wall_s=12.0, frac=0.5), result(wall_s=11.0, frac=0.5, failed=1)]
    change = [result(wall_s=5.0, frac=0.6), result(wall_s=13.0, frac=0.5), result(wall_s=6.0, frac=0.4)]
    entry = bench.aggregate(parent, change, specs)
    assert entry["failed"] == {"parent": [0, 0, 1], "change": [0, 0, 0]}
    wall = entry["metrics"]["wall_s"]
    assert wall["parent"]["median"] == 11.0 and wall["change"]["median"] == 6.0
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (10.5, 11.5)
    assert wall["change_better_pairs"] == 2 and wall["pairs"] == 3
    assert wall["change_over_parent"] == pytest.approx(6.0 / 11.0)
    assert (wall["better"], wall["bound"], wall["unit"]) == ("lower", 0.2, "s")
    # higher is better: only the first pair improves, a tie is not better
    assert entry["metrics"]["frac"]["change_better_pairs"] == 1


def test_layers_pair_the_traced_runs_side_by_side(bench):
    parent = result(**{"interval.calls": 51765, "interval.rungs": 3039, "poly.calls": 0})
    change = result(**{"interval.calls": 49995, "interval.rungs": 3039, "qfield.new": 7})
    assert bench.layers(parent, change) == {
        "interval.calls": {"unit": "s", "parent": 51765, "change": 49995},
        "interval.rungs": {"unit": "s", "parent": 3039, "change": 3039},
        # a metric one side's tracer does not report reads None there, and a zero stays a zero
        "poly.calls": {"unit": "s", "parent": 0, "change": None},
        "qfield.new": {"unit": "s", "parent": None, "change": 7},
    }


def write_tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_src_lines_counts_python_under_src(bench, tmp_path):
    write_tree(tmp_path, {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/b.txt": "not counted\n"})
    assert bench.line_counts(tmp_path) == {"src_lines": 2, "tests_lines": 0}


def test_line_deltas_tell_a_deletion_from_a_move_into_tests(bench, tmp_path):
    parent = write_tree(tmp_path / "parent", {"src/m.py": "a\nb\nc\n", "tests/t.py": "t\n", "tests/x.txt": "\n\n"})
    moved = write_tree(tmp_path / "moved", {"src/m.py": "a\n", "tests/t.py": "t\n", "tests/o.py": "b\nc\n"})
    deleted = write_tree(tmp_path / "deleted", {"src/m.py": "a\n", "tests/t.py": "t\n"})
    before = bench.line_counts(parent)
    assert before == {"src_lines": 3, "tests_lines": 1}
    assert bench.line_deltas(before, bench.line_counts(moved)) == {"src_lines_delta": -2, "tests_lines_delta": 2}
    assert bench.line_deltas(before, bench.line_counts(deleted)) == {"src_lines_delta": -2, "tests_lines_delta": 0}
    # other keys of a side's record (its tier-1 result) get no delta
    same = {**before, "tier1": {}}
    assert bench.line_deltas(same, same) == {"src_lines_delta": 0, "tests_lines_delta": 0}


def git_repo(root):
    """A git repository at ``root`` with one commit of ``a.py``, and a runner of git in it."""

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout

    root.mkdir(exist_ok=True)
    git("init", "-q")
    git("config", "user.name", "t")
    git("config", "user.email", "t@example.org")
    (root / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("commit", "-qm", "one")
    return git


def test_working_tree_state_names_head_and_uncommitted_paths(bench, tmp_path, monkeypatch):
    git = git_repo(tmp_path)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    head = git("rev-parse", "HEAD").strip()
    assert bench.working_tree_state() == {"rev": head, "uncommitted": []}
    (tmp_path / "a.py").write_text("x = 2\n")
    assert bench.working_tree_state() == {"rev": head, "uncommitted": [" M a.py"]}


def test_change_side_is_unpacked_from_head_or_a_stash_commit(bench, tmp_path, monkeypatch):
    repo, dest = tmp_path / "repo", tmp_path / "unpacked"
    dest.mkdir()
    git = git_repo(repo)
    monkeypatch.setattr(bench, "ROOT", repo)

    # untracked files that are not Python, or outside src/, tests/ and perfbench/, are not refused
    write_tree(repo, {"notes.py": "n\n", "src/data.txt": "d\n"})
    assert bench.change_source() == "HEAD"
    # an edit and a staged new file are in the stash commit; the working tree is left as it was
    write_tree(repo, {"a.py": "x = 2\n", "src/b.py": "y = 1\n"})
    git("add", "src/b.py")
    bench.unpack(bench.change_source(), dest)
    unpacked = sorted((path.relative_to(dest).as_posix(), path.read_text()) for path in dest.rglob("*.py"))
    assert unpacked == [("a.py", "x = 2\n"), ("src/b.py", "y = 1\n")]
    assert git("status", "--porcelain", "--untracked-files=no").split() == ["M", "a.py", "A", "src/b.py"]
    for sub in ("src", "tests", "perfbench"):
        write_tree(repo, {f"{sub}/new.py": "z = 1\n"})
        with pytest.raises(ValueError, match=f"{sub}/new.py"):
            bench.change_source()
        (repo / sub / "new.py").unlink()


def test_run_cli_records_exit_digest_and_bytecode(bench, tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    main = "import sys\nprint(sys.argv[1:])\nsys.exit(3)\n"
    tree = write_tree(tmp_path, {"src/kraitchik/__init__.py": "", "src/kraitchik/__main__.py": main})
    first, second = (bench.run_cli(tree, ("verify", "x")) for _ in range(2))
    digest = hashlib.sha256(b"['verify', 'x']\n").hexdigest()
    assert {k: first[k] for k in ("exit", "stdout_sha256")} == {"exit": 3, "stdout_sha256": digest}
    assert first["wall_s"] > 0
    # the first process compiles the package; the second finds its bytecode
    assert (first["wrote_bytecode"], second["wrote_bytecode"]) == (True, False)


def test_cli_section_alternates_sides_and_reports_a_digest_mismatch(bench, capsys):
    calls = []

    def fake_run(tree, args):
        calls.append((tree, args[-1]))
        out = "changed" if tree == "change-tree" and args[-1] == "1001" else "same"
        wall = {"parent-tree": 2.0, "change-tree": 1.0}[tree]
        return {"wall_s": wall, "exit": 0, "stdout_sha256": out, "wrote_bytecode": False}

    commands = ((("verify", "corollary"), 2), (("verify", "all", "--dmax", "1001"), 3))
    section = bench.cli_section({"parent": "parent-tree", "change": "change-tree"}, commands, fake_run)
    assert list(section) == ["verify corollary", "verify all --dmax 1001"]
    assert [tree for tree, _ in calls] == ["parent-tree", "change-tree", "change-tree", "parent-tree"] * 2 + [
        "parent-tree",
        "change-tree",
    ]
    entry = section["verify corollary"]
    assert (entry["pairs"], entry["change_better_pairs"], entry["same_stdout"]) == (2, 2, True)
    assert entry["parent"]["wall_s"]["median"] == 2.0 and entry["change"]["wall_s"]["runs"] == [1.0, 1.0]
    assert len(entry["parent"]["runs"]) == 2 and entry["parent"]["runs"][0]["exit"] == 0
    assert section["verify all --dmax 1001"]["same_stdout"] is False
    assert "verify all --dmax 1001" in capsys.readouterr().err


def test_cli_commands_cover_every_suite(bench):
    # each suite at its default range in 5 pairs, then the whole sweep to d = 1001, the
    # largest modulus and the widest table range in 3
    from kraitchik.cli import SUITES

    assert bench.CLI_COMMANDS == tuple((("verify", s), 5) for s in SUITES) + (
        (("verify", "all", "--dmax", "1001"), 3),
        (("compute", "6997", "--format", "json"), 3),
        (("table", "5..1000", "--format", "json"), 3),
    )
