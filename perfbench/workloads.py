"""The benchmark's workloads: the CLI commands each one runs, built from a seed.

A workload is a cycle of CLI operations that the benchmark repeats in a
closed loop.  Every input an operation can receive comes from a finite
family (a fixed lattice of L sub-ranges, a fixed pool of generated
datasets), and the seed only chooses members of that family.  So the
references recorded once in ``refs/`` cover every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
DATA_DIR = ROOT / "data"

WORKLOADS = ("device-chain", "dispersion-map", "fit-batch")

# Seed kept out of development runs; a change's claim is confirmed on it
# (choosing-metrics section 6.3).
HELD_OUT_SEED = 9001

# device-chain: the two proposed membranes and the unstable point
DESIGNS = ((198.0, 478.0, "node"), (132.0, 637.0, "antinode"))
L_JITTER_NM = 30.0
UNSTABLE = ("t_d_nm=198", "L_nm=5400")

# dispersion-map: a cycle is two commands at the default 20 nm L step, each
# taking DISP_SAMPLES air gaps, which samples one lambda/2 period of the mode
# pattern (about 320 nm of L) at evenly spaced phases.  The seed shifts the low
# sub-range up from 1.5 um on a DISP_LATTICE_NM lattice and the high one
# down from 4.5 um by the same amount: mode density grows with L, so the
# mirrored pair keeps the cost of a cycle nearly the same for every seed.
DISP_RANGE_NM = (1500, 4500)
DISP_STEP_NM = 20
DISP_SAMPLES = 16
DISP_SPAN_NM = (DISP_SAMPLES - 1) * DISP_STEP_NM
DISP_LATTICE_NM = 60
DISP_SHIFTS = ((DISP_RANGE_NM[1] - DISP_RANGE_NM[0]) // 2 - DISP_SPAN_NM) // DISP_LATTICE_NM

# fit-batch: generated datasets come from a pool of FIT_POOL members per
# kind; a seed picks FIT_PICKS of each.
FIT_POOL = 16
FIT_PICKS = 2
FIT_GENERATED = ("lorentzian", "lifetime", "g2")
FIT_BUNDLED = (("voigt", "zpl2_resonance.csv"), ("gaussian", "zpl6_lateral.csv"))


@dataclass(frozen=True)
class Op:
    """One CLI command: its argv (after ``cavityforge``), the reference it is
    checked against, the exit code it must return and its work units."""
    argv: tuple
    ref: str
    units: int
    exit: int = 0
    echo: dict = field(default_factory=dict)   # design columns that echo the input
    generated: tuple = ()                      # (kind, pool member) of a generated input


def _fmt_nm(v: float) -> str:
    return format(v, ".9g")


# ------------------------------------------------------------ device-chain

def _device_chain(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    jit = np.round(rng.uniform(-L_JITTER_NM, L_JITTER_NM, size=3), 2)
    ops = [Op(("report", "--paper-baseline"), "report", 1)]
    for (t_d, L, _), dl in zip(DESIGNS, jit[:2]):
        L_s = _fmt_nm(L + dl)
        ops.append(Op(("design", "--single", f"t_d_nm={t_d:g}", f"L_nm={L_s}"),
                      f"design-{t_d:g}", 1, echo={"L_nm": L_s}))
    t_d, L, _ = DESIGNS[0]
    L_s = _fmt_nm(L + jit[2])
    ops.append(Op(("design", "--t-d-nm", f"{t_d:g}", "--l-nm", L_s,
                   "--terminations", "node", "antinode"), "sweep", 2,
                  echo={"L_nm": L_s}))
    ops.append(Op(("design", "--single", *UNSTABLE, "--r-um", "5.5"),
                  "unstable", 1, exit=3))
    return ops


# ---------------------------------------------------------- dispersion-map

def dispersion_op(lo: int, order: int) -> Op:
    hi = lo + DISP_SPAN_NM
    argv = ("dispersion", "--paper-baseline", "--l-min-um", f"{lo / 1e3:g}",
            "--l-max-um", f"{hi / 1e3:g}")
    if order:
        argv += ("--max-transverse-order", str(order))
    return Op(argv, f"dispersion-{lo}-{hi}", DISP_SAMPLES)


def dispersion_starts(shift: int) -> tuple:
    d = shift * DISP_LATTICE_NM
    return DISP_RANGE_NM[0] + d, DISP_RANGE_NM[1] - DISP_SPAN_NM - d


def _dispersion_map(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    starts = dispersion_starts(int(rng.integers(0, DISP_SHIFTS)))
    with_order = int(rng.integers(0, len(starts)))
    return [dispersion_op(lo, 2 if i == with_order else 0) for i, lo in enumerate(starts)]


# --------------------------------------------------------------- fit-batch

def fit_input(kind: str, member: int) -> Path:
    return WORK_DIR / "inputs" / f"{kind}-{member:02d}.csv"


def fit_op(kind: str, member: int) -> Op:
    return Op(("fit", kind, str(fit_input(kind, member).relative_to(ROOT))),
              f"fit-{kind}-{member:02d}", 1, generated=(kind, member))


def _exgauss(t: float, tau: float, amp: float, base: float, sigma: float) -> float:
    # single exponential convolved with a Gaussian IRF (exGaussian form)
    return base + 0.5 * amp * math.exp(sigma ** 2 / (2 * tau ** 2) - t / tau) * \
        math.erfc((sigma / tau - t / sigma) / math.sqrt(2.0))


def generate_fit_input(kind: str, member: int) -> str:
    """CSV text of pool member ``member`` of a generated fit dataset."""
    rng = np.random.default_rng([member, FIT_GENERATED.index(kind), 3])
    if kind == "lorentzian":
        # decay rate vs spectral detuning, 2 % multiplicative noise
        fwhm = rng.uniform(0.25, 0.40)
        x = np.linspace(-4 * fwhm, 4 * fwhm, 121)
        y = 88.2e6 + 69.8e6 / (1 + (2 * (x - rng.uniform(-0.02, 0.02)) / fwhm) ** 2)
        y *= 1 + 0.02 * rng.standard_normal(x.size)
        header = "delta_lambda_nm,rate_per_s"
    elif kind == "lifetime":
        # Poisson-noised decay histogram, 0.05 ns bins
        tau = rng.uniform(10.0, 15.0)
        x = np.arange(0.0, 80.0 + 0.025, 0.05)
        lam = np.array([_exgauss(t, tau, 1e4, 5.0, 0.2) for t in x])
        y = rng.poisson(lam).astype(float)
        header = "t_ns,counts"
    elif kind == "g2":
        # Poisson-noised pulsed coincidence histogram, 100 ns period
        g0 = rng.uniform(0.2, 0.35)
        x = np.arange(-1050.0, 1050.0 + 0.1, 0.2)
        lam = np.zeros_like(x)
        for k in range(-10, 11):
            area = 2000.0 * (g0 if k == 0 else 1.0)
            lam += area * 0.2 / (2.0 * math.sqrt(2 * math.pi)) * \
                np.exp(-((x - 100.0 * k) ** 2) / 8.0)
        y = rng.poisson(lam).astype(float)
        header = "delay_ns,coincidences"
    else:
        raise ValueError(f"no generator for {kind!r}")
    lines = [header] + [f"{a:.9g},{b:.9g}" for a, b in zip(x, y)]
    return "\n".join(lines) + "\n"


def write_fit_input(kind: str, member: int) -> None:
    path = fit_input(kind, member)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate_fit_input(kind, member), encoding="utf-8")


def _fit_batch(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    ops = [Op(("fit", kind, str((DATA_DIR / name).relative_to(ROOT))), f"fit-{kind}", 1)
           for kind, name in FIT_BUNDLED]
    for kind in FIT_GENERATED:
        for member in sorted(rng.choice(FIT_POOL, FIT_PICKS, replace=False)):
            ops.append(fit_op(kind, int(member)))
    return ops


def build(workload: str, seed: int) -> list:
    """The operation cycle of ``workload`` for ``seed``.  Writes the
    generated input files it needs under ``.work/inputs``."""
    ops = {"device-chain": _device_chain, "dispersion-map": _dispersion_map,
           "fit-batch": _fit_batch}[workload](seed)
    for op in ops:
        if op.generated:
            write_fit_input(*op.generated)
    return ops


def all_ops() -> list:
    """Every operation any seed can produce, for recording references."""
    ops = _device_chain(0)
    # references keep the order-2 output; an order-0 command is checked
    # against its transverse_order 0 rows
    ops += [dispersion_op(lo, 2) for k in range(DISP_SHIFTS) for lo in dispersion_starts(k)]
    ops += [Op(("fit", kind, str((DATA_DIR / name).relative_to(ROOT))), f"fit-{kind}", 1)
            for kind, name in FIT_BUNDLED]
    ops += [fit_op(kind, m) for kind in FIT_GENERATED for m in range(FIT_POOL)]
    return ops
