"""Tests of scripts/bench_pairs.py, the alternating parent/change benchmark driver."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_synthetic_runs():
    bench_pairs = load_script("bench_pairs.py")
    end_to_end = [
        {"name": "wall_ref", "better": "lower", "bound": 0.25},
        {"name": "ok_ratio", "better": "higher", "bound": 0.02},
    ]
    walls = [(10.0, 6.0), (12.0, 7.0), (11.0, 13.0), (9.0, 8.0)]
    pairs = [
        {"seed": seed,
         "parent": {"wall_ref": p, "ok_ratio": 1.0, "ok": True},
         "change": {"wall_ref": c, "ok_ratio": 0.97, "ok": seed != 4}}
        for seed, (p, c) in enumerate(walls, start=1)
    ]
    summary = bench_pairs.summarize(pairs, end_to_end)
    assert summary["pairs"] == 4 and summary["seeds"] == [1, 2, 3, 4]
    assert summary["all_ok"] is False  # the change's run of seed 4 failed
    wall = summary["wall_ref"]
    assert wall["per_pair"] == [list(pair) for pair in walls]
    assert (wall["parent_median"], wall["change_median"]) == (10.5, 7.5)
    assert wall["ratio"] == 7.5 / 10.5
    assert wall["parent_q1_q3"] == [9.75, 11.25] and wall["change_q1_q3"] == [6.75, 9.25]
    assert wall["change_better_pairs"] == 3
    assert wall["better_by_more_than_parent_iqr"] and wall["within_bound"]
    ok = summary["ok_ratio"]
    assert ok["change_better_pairs"] == 0 and not ok["better_by_more_than_parent_iqr"]
    assert not ok["within_bound"]  # 3% lower against a 2% bound, higher being better
    for scale, within in ((1.2, True), (1.3, False)):
        for pair in pairs:
            pair["change"].update(wall_ref=scale * pair["parent"]["wall_ref"], ok_ratio=0.99)
        summary = bench_pairs.summarize(pairs, end_to_end)
        assert summary["wall_ref"]["within_bound"] is within, scale  # bound 25%
        assert summary["wall_ref"]["change_better_pairs"] == 0
        assert summary["ok_ratio"]["within_bound"]


def test_bench_pairs_copies_src_perfbench_and_benchmark_without_bytecode(tmp_path):
    bench_pairs = load_script("bench_pairs.py")
    checkout = tmp_path / "checkout"
    copied = ["BENCHMARK.json", "src/orbitopes/cli.py", "src/orbitopes/sub/m.py", "perfbench/run.py"]
    left = ["README.md", "tests/test_cli.py", ".git/HEAD", "src/orbitopes/__pycache__/cli.cpython-311.pyc",
            "perfbench/__pycache__/run.cpython-311.pyc", "src/orbitopes/sub/__pycache__/m.cpython-311.pyc",
            "perfbench/.work/cli-1/request.json"]
    for name in copied + left:
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(name)
    dest = bench_pairs.plain_copy(checkout, tmp_path / "change")
    assert dest == tmp_path / "change"
    assert sorted(p.name for p in dest.iterdir()) == ["BENCHMARK.json", "perfbench", "src"]
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == sorted(copied)
    assert all((dest / name).read_text() == name for name in copied)
