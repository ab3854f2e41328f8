import copy
import os
import pathlib
import subprocess
import sys

import pytest

from cavityforge.config import (ConfigError, paper_baseline_dict, parse_config)
from cavityforge.constants import C


def test_paper_baseline_parses():
    cfg = parse_config(paper_baseline_dict())
    assert cfg.cavity.t_d == 770.0
    assert cfg.cavity.L == 1960.0
    assert cfg.cavity.curvature_radius_um == 16.0
    assert cfg.cavity.transverse_waist_fwhm_um == 0.83
    assert cfg.emitter.zpl_wavelength == 637.0
    assert cfg.measured["Gamma_L_pm"] == 60.6


def test_unknown_top_level_key_rejected():
    doc = paper_baseline_dict()
    doc["cavityy"] = {}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_unknown_nested_key_rejected():
    doc = paper_baseline_dict()
    doc["cavity"]["t_d"] = 770.0  # missing unit suffix
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_unknown_mirror_key_rejected():
    doc = paper_baseline_dict()
    doc["cavity"]["top_mirror"]["paires"] = 3
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_missing_emitter_rejected():
    doc = paper_baseline_dict()
    del doc["emitter"]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_cavity_block_is_optional_only_where_asked():
    doc = {"emitter": {}}
    with pytest.raises(ConfigError, match="config: missing required 'cavity' block"):
        parse_config(doc)
    assert parse_config(doc, needs_cavity=False).cavity is None
    # a cavity block that is present is checked either way
    bad = {"emitter": {}, "cavity": {"t_d_nm": 770.0}}
    with pytest.raises(ConfigError, match="missing required key 'L_nm'"):
        parse_config(bad, needs_cavity=False)


def test_missing_air_gap_rejected():
    doc = paper_baseline_dict()
    del doc["cavity"]["L_nm"]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_unstable_geometry_rejected():
    doc = paper_baseline_dict()
    doc["cavity"]["L_nm"] = 20000.0
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_emitter_depth_must_be_inside_membrane():
    doc = paper_baseline_dict()
    doc["emitter"]["depth_nm"] = 900.0
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_constants_override_validation():
    # a config cannot override the constants: the block is an unknown key
    c = C
    doc = paper_baseline_dict()
    doc["constants"] = {"c": 3e8}
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(doc)
    assert C == c


def test_negative_membrane_rejected():
    doc = paper_baseline_dict()
    doc["cavity"]["t_d_nm"] = -5.0
    with pytest.raises(ConfigError, match="thickness"):
        parse_config(doc)


def test_measured_block_strict():
    doc = paper_baseline_dict()
    doc["measured"]["Gamma_L"] = 60.6
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("key, value", [("terminal_high_index", "false"),
                                        ("pairs", 15.7)])
def test_mirror_values_are_not_coerced(key, value):
    doc = paper_baseline_dict()
    doc["cavity"]["top_mirror"][key] = value
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)


@pytest.mark.parametrize("pairs, ok", [(1030, True), (2059, True), (2060, False)])
def test_mirror_pairs_bound_comes_from_the_float_range(pairs, ok):
    # the Chebyshev recurrence of the mirror matrix reaches the largest float
    # between 2059 and 2060 pairs of the default 2.06 / 1.46 mirror
    doc = paper_baseline_dict()
    doc["cavity"]["top_mirror"]["pairs"] = pairs
    if ok:
        assert parse_config(doc).cavity.top_mirror.pairs == pairs
    else:
        with pytest.raises(ConfigError, match="cavity.top_mirror: 2060 mirror pairs"):
            parse_config(doc)


def test_config_import_loads_no_physics_module():
    # reading a config needs only the records it fills, not the solver chain
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, cavityforge.config\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cavityforge'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['cavityforge', 'cavityforge.config', 'cavityforge.stack']"
