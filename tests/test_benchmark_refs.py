"""Every command the benchmark can run, judged against the benchmark's
recorded references (perfbench/refs) by perfbench/checker.py, in-process.

The benchmark counts an output that misses its reference as a failed
operation; this test makes such a miss a test failure.  It reads
perfbench/ and changes nothing there.
"""

import contextlib
import io
import pathlib
import sys

from cavityforge.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import checker  # noqa: E402
import workloads  # noqa: E402


def test_every_benchmark_command_matches_its_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)   # bundled inputs are named from the repository root
    refs = {}
    for workload in workloads.WORKLOADS:
        refs.update(checker.load_refs(workload))
    misses = {}
    for op in workloads.all_ops():
        argv = list(op.argv)
        if op.generated:
            kind, member = op.generated
            argv[2] = str(tmp_path / f"{kind}-{member:02d}.csv")
            pathlib.Path(argv[2]).write_text(workloads.generate_fit_input(kind, member),
                                             encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(argv)
        problems = checker.check(op, rc, out.getvalue(), refs)
        if problems:
            misses[" ".join(op.argv)] = problems[:3]
    assert misses == {}
