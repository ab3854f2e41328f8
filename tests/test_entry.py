"""The process entry of the command line: ``python -m cavityforge.cli`` and
the installed ``cavityforge`` command run ``cli.run``, which turns the
cyclic garbage collector off for its one command and ends with 141 when
the reader of stdout left early; ``cli.main`` and a plain import leave the
collector alone."""

import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cavityforge import cli

REPO = pathlib.Path(__file__).resolve().parent.parent
DATA = REPO / "data"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _python(code: str, cwd) -> str:
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=_env(), check=True,
                          capture_output=True, text=True).stdout


def _bare_irf_peak(path: pathlib.Path) -> None:
    # no decay under the IRF: the lifetime fit ends unconverged, exit 4
    t = np.arange(0.0, 20.0, 0.05)
    c = 5.0 + 1e4 * np.exp(-t ** 2 / 0.08)
    path.write_text("t_ns,counts\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                                              for a, b in zip(t, c)))


_SHAPES = {
    "report": (["report", "--paper-baseline"], 0),
    "design-single": (["design", "--single", "t_d_nm=198", "L_nm=478"], 0),
    "design-unstable": (["design", "--single", "t_d_nm=198", "L_nm=5400", "--r-um", "5.5"], 3),
    "dispersion-transverse": (["dispersion", "--paper-baseline", "--l-min-um", "1.5",
                               "--l-max-um", "1.56", "--max-transverse-order", "2"], 0),
    "fit-voigt": (["fit", "voigt", str(DATA / "zpl2_resonance.csv")], 0),
    "fit-gaussian-to-file": (["fit", "gaussian", str(DATA / "zpl6_lateral.csv"),
                              "-o", "out.json"], 0),
    "fit-lifetime-bare-irf": (["fit", "lifetime", "irf.csv", "--irf-sigma-ns", "0.2",
                               "--window-start-ns", "0"], 4),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_entry_process_matches_in_process_main(shape, tmp_path, monkeypatch, capsysbinary):
    argv, want = _SHAPES[shape]
    outputs = {}
    for side in ("main", "process"):
        d = tmp_path / side
        d.mkdir()
        _bare_irf_peak(d / "irf.csv")
        if side == "main":
            monkeypatch.chdir(d)
            code = cli.main(argv)
            out, err = capsysbinary.readouterr()
        else:
            run = subprocess.run([sys.executable, "-m", "cavityforge.cli", *argv], cwd=d,
                                 env=_env(), capture_output=True)
            code, out, err = run.returncode, run.stdout, run.stderr
        written = (d / "out.json").read_bytes() if (d / "out.json").exists() else None
        outputs[side] = (code, out, err, written)
    assert outputs["main"][0] == want
    assert outputs["process"] == outputs["main"]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["report", "--paper-baseline"],
    # far more output than one buffer holds
    ["dispersion", "--paper-baseline", "--max-transverse-order", "2"],
], ids=["report", "full-map"])
def test_reader_that_left_ends_the_process_with_141(argv, unbuffered, tmp_path):
    # stdout is a pipe whose read end is closed before the command writes
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "cavityforge.cli", *argv],
                             cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (141, b"")


def test_main_leaves_the_collector_alone(tmp_path):
    out = _python(
        "import gc\n"
        "import cavityforge.cli\n"
        "print(gc.isenabled(), gc.get_freeze_count())\n"
        f"assert cavityforge.cli.main(['fit', 'voigt', {str(DATA / 'zpl2_resonance.csv')!r},"
        " '-o', 'fit.json']) == 0\n"
        "print(gc.isenabled(), gc.get_freeze_count())\n", tmp_path)
    assert out.split() == ["True", "0", "True", "0"]


def test_module_run_as_main_runs_without_the_collector(tmp_path):
    # a callback counts the collections that start once numpy's import has
    # begun, up to the end of the command; SystemExit carries run()'s exit code
    out = _python(
        "import gc, runpy, sys\n"
        "collections = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and 'numpy' in sys.modules\n"
        "                    and collections.append(info['generation']))\n"
        f"sys.argv = ['cavityforge', 'fit', 'voigt', {str(DATA / 'zpl2_resonance.csv')!r},"
        " '-o', 'fit.json']\n"
        "try:\n"
        "    runpy.run_module('cavityforge.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, 'numpy' in sys.modules, len(collections), gc.isenabled(),\n"
        "      gc.get_freeze_count() > 0)\n", tmp_path)
    assert out.split() == ["0", "True", "0", "False", "True"]


def _main_block_entry(source: str) -> str:
    """The name of the function the module's __main__ block passes to
    sys.exit."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and ast.unparse(node.test) == "__name__ == '__main__'"):
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and ast.unparse(call.func) == "sys.exit"
                        and isinstance(call.args[0], ast.Call)):
                    return ast.unparse(call.args[0].func)
    raise AssertionError("no sys.exit(entry()) in a __main__ block")


def test_installed_command_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["cavityforge"].partition(":")
    assert module == cli.__name__
    entry = _main_block_entry(pathlib.Path(cli.__file__).read_text())
    assert getattr(cli, attr) is getattr(cli, entry)
