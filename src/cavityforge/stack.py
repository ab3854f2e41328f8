"""Layered cavity geometry and emitter parameters.

All lengths are in nanometers unless a field name says otherwise.
The stack order is substrate -> bottom DBR -> diamond -> air gap ->
top DBR -> substrate, with z increasing upward from the bottom
substrate interface.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

# what a design asks of the field at the diamond-air interface
TERMINATIONS = ("node", "antinode")


class GeometryError(ValueError):
    """Raised for unphysical or unstable cavity geometry."""


@dataclass(frozen=True)
class Layer:
    name: str
    n: complex          # refractive index, Re >= 1, Im >= 0 (loss)
    thickness: float    # nm, > 0 (zero allowed only for dummy layers)

    def __post_init__(self):
        if not math.isfinite(self.thickness):
            raise GeometryError(f"layer {self.name!r}: thickness {self.thickness} is not finite")
        if self.thickness < 0:
            raise GeometryError(f"layer {self.name!r}: thickness {self.thickness} < 0")
        if self.n.real < 1.0:
            raise GeometryError(f"layer {self.name!r}: Re(n)={self.n.real} < 1")
        if self.n.imag < 0.0:
            raise GeometryError(f"layer {self.name!r}: Im(n)={self.n.imag} < 0")

    @property
    def optical_thickness(self) -> float:
        return self.n.real * self.thickness


@dataclass(frozen=True)
class MirrorSpec:
    pairs: int
    center_wavelength: float      # nm
    n_high: float = 2.06
    n_low: float = 1.46
    terminal_high_index: bool = True   # stack ends on n_high next to the cavity
    substrate_index: float = 1.46
    lumped_loss: float = 0.0           # round-trip fractional loss

    def __post_init__(self):
        if self.pairs < 1:
            raise GeometryError(f"mirror pairs must be >= 1, got {self.pairs}")
        if not (0.0 <= self.lumped_loss < 1.0):
            raise GeometryError(f"lumped_loss must be in [0, 1), got {self.lumped_loss}")
        if self.center_wavelength <= 0:
            raise GeometryError("center_wavelength must be positive")
        for name in ("n_high", "n_low", "substrate_index"):
            if getattr(self, name) < 1.0:
                raise GeometryError(f"{name} must be >= 1, got {getattr(self, name)}")
        # tmm._dbr_entries' Chebyshev recurrence reaches U_{N-1} = (r^N - r^-N) / (r - 1/r)
        # at the stop band's centre, r = max(n_high / n_low, n_low / n_high); its
        # largest term, r U_{N-1} or U_{N-1} + U_{N-3}, must stay a finite float
        r = max(self.n_high / self.n_low, self.n_low / self.n_high)
        if r > 1.0 and (self.pairs * math.log(r) + math.log(max(r, 1.0 + r ** -2) / (r - 1.0 / r))
                        >= math.log(sys.float_info.max)):
            raise GeometryError(f"{self.pairs} mirror pairs grow the mirror's matrix past the "
                                f"float range at n_high / n_low = {self.n_high / self.n_low:.6g}")


def build_dbr(spec: MirrorSpec) -> list[Layer]:
    """Quarter-wave stack as a list of layers ordered from the cavity side.

    Each layer has physical thickness center_wavelength / (4 n).  With
    terminal_high_index the first (cavity-side) layer is n_high.
    """
    lam = spec.center_wavelength
    high = Layer("dbr_high", complex(spec.n_high), lam / (4.0 * spec.n_high))
    low = Layer("dbr_low", complex(spec.n_low), lam / (4.0 * spec.n_low))
    first, second = (high, low) if spec.terminal_high_index else (low, high)
    layers: list[Layer] = []
    for _ in range(spec.pairs):
        layers.append(first)
        layers.append(second)
    return layers


def _paraxial_length_um(t_d: float, L: float) -> float:
    """Mirror separation in um of a membrane t_d and an air gap L (nm), the
    length the Gaussian-optics formulas take."""
    return (t_d + L) * 1e-3


@dataclass(frozen=True)
class CavityAssembly:
    bottom_mirror: MirrorSpec
    diamond: Layer                 # thickness t_d; t_d = 0 means bare cavity
    air_gap: Layer                 # n = 1, length L
    top_mirror: MirrorSpec
    curvature_radius_um: float     # radius of curvature of the top mirror
    transverse_waist_fwhm_um: Optional[float] = None  # measured-intensity-FWHM override

    def __post_init__(self):
        total_um = self.geometric_length_um()
        if total_um >= self.curvature_radius_um:
            raise GeometryError(
                f"unstable geometry: L + t_d = {total_um:.3f} um >= "
                f"R = {self.curvature_radius_um:.3f} um")

    @property
    def t_d(self) -> float:
        return self.diamond.thickness

    @property
    def L(self) -> float:
        return self.air_gap.thickness

    def layers(self) -> list[Layer]:
        """Full layer list, bottom substrate side first."""
        bottom = list(reversed(build_dbr(self.bottom_mirror)))
        top = build_dbr(self.top_mirror)
        inner = []
        if self.diamond.thickness > 0:
            inner.append(self.diamond)
        inner.append(self.air_gap)
        return bottom + inner + top

    @property
    def n_in(self) -> complex:
        return complex(self.bottom_mirror.substrate_index)

    @property
    def n_out(self) -> complex:
        return complex(self.top_mirror.substrate_index)

    def with_air_gap(self, L: float) -> "CavityAssembly":
        return replace(self, air_gap=Layer("air", 1.0 + 0.0j, L))

    def geometric_length_um(self) -> float:
        """Physical mirror separation entering the Gaussian-optics formulas."""
        return _paraxial_length_um(self.t_d, self.L)


@dataclass(frozen=True)
class EmitterSpec:
    """The NV centre and its host, whose defaults are the demonstrated device's."""
    zpl_wavelength: float = 637.0     # nm
    bulk_lifetime_ns: float = 12.6
    host_index: float = 2.41
    debye_waller: float = 0.0255      # ZPL branching fraction gamma_0 / gamma_R0
    depth_below_surface: float = 68.0  # nm, measured from the diamond top surface
    dipole_orientation_factor: float = 1.0

    def __post_init__(self):
        if not self.zpl_wavelength > 0:
            raise ValueError(f"zpl_wavelength must be positive, got {self.zpl_wavelength}")
        if not (0.0 < self.debye_waller < 1.0):
            raise ValueError(f"debye_waller must be in (0, 1), got {self.debye_waller}")
        if self.bulk_lifetime_ns <= 0:
            raise ValueError("bulk_lifetime_ns must be positive")
        if not (0.0 < self.dipole_orientation_factor <= 1.0):
            raise ValueError("dipole_orientation_factor must be in (0, 1]")


def assemble_cavity(bottom: MirrorSpec, t_d: float, L: float, top: MirrorSpec,
                    R_um: float,
                    n_d: float = EmitterSpec.host_index,
                    waist_fwhm_um: Optional[float] = None) -> CavityAssembly:
    """Assemble the full cavity. t_d = 0 yields a bare (air-only) cavity;
    a negative t_d raises GeometryError."""
    diamond = Layer("diamond", complex(n_d), t_d)
    air = Layer("air", 1.0 + 0.0j, L)
    return CavityAssembly(bottom, diamond, air, top, R_um, waist_fwhm_um)


def emitter_rates(e: EmitterSpec) -> dict:
    """Bulk decay rates in s^-1: total, ZPL channel, and non-ZPL channel."""
    gamma_bulk = 1.0 / (e.bulk_lifetime_ns * 1e-9)
    gamma_zpl = e.debye_waller * gamma_bulk
    return {
        "gamma_bulk": gamma_bulk,
        "gamma_zpl": gamma_zpl,
        "gamma_psb": gamma_bulk - gamma_zpl,
    }
