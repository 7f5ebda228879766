"""The shared value checker, and the README tables that document its intervals."""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mscgc.checks import check, check_fields, check_items, whole
from mscgc.data import SynthSpec
from mscgc.errors import ConfigError
from mscgc.model import ModelConfig
from mscgc.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


class TestCheck:
    @pytest.mark.parametrize("value,kind,interval", [
        (0, int, "[0, 1)"), (np.int64(3), int, "[1, inf)"), (1, float, "[0, 1]"),
        (0.5, float, "(0, 1)"), (math.inf, float, "(0, inf]"), (-math.inf, float, "[-inf, 0]"),
        (True, bool, "(-inf, inf)"), (np.float64(0.1), float, "(-inf, inf)")])
    def test_accepted(self, value, kind, interval):
        assert check("x", value, kind, interval) == value

    @pytest.mark.parametrize("value,kind,interval", [
        (1, int, "[0, 1)"), (0, float, "(0, 1)"), (math.inf, float, "(0, inf)"),
        (math.nan, float, "[-inf, inf]"), (True, int, "(-inf, inf)"), (False, float, "(-inf, inf)"),
        (1.0, int, "(-inf, inf)"), (np.int64(1), float, "(-inf, inf)"), (1, bool, "(-inf, inf)"),
        ("1", int, "(-inf, inf)"), (None, float, "(-inf, inf)"), (np.float32(0.5), float, "(0, 1)")])
    def test_rejected_naming_the_value(self, value, kind, interval):
        with pytest.raises(ConfigError, match="^x must be"):
            check("x", value, kind, interval)

    def test_numbers_are_finite_without_an_interval(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError):
                check("x", value, float)

    def test_ints_come_back_as_int_and_floats_as_given(self):
        assert type(check("x", np.uint8(3), int)) is int
        assert type(check("x", 3, float)) is int
        assert type(check("x", np.float64(3.0), float)) is np.float64

    def test_whole_converts_only_integral_floats(self):
        assert [whole(v) for v in (6.0, np.float64(2.0), 6, 6.5, math.inf, True, "6")] == \
            [6, 2, 6, 6.5, math.inf, True, "6"]
        assert type(whole(6.0)) is int


class TestCheckItems:
    def test_integral_floats_count_as_ints(self):
        assert check_items("k", [3.0, np.int64(5)], int, "[1, inf)") == (3, 5)

    @pytest.mark.parametrize("values,count", [([], 0), ((), 0), (3, 0), ("35", 0), (None, 0),
                                              ([1, 2], 3), ([1, 2, 3, 4], 3)])
    def test_container_and_count(self, values, count):
        with pytest.raises(ConfigError, match="^k must be a list"):
            check_items("k", values, int, "[0, inf)", count)


class TestCheckFields:
    def test_kind_is_read_off_each_annotation(self):
        spec = SynthSpec(C=np.int64(4), noise_scale=1, nonlinearity=False)
        assert (type(spec.C), type(spec.noise_scale)) == (int, int)
        for field, value in (("C", 4.0), ("noise_scale", "1"), ("nonlinearity", 1)):
            with pytest.raises(ConfigError, match=f"^{field} must be"):
                SynthSpec(**{field: value})

    def test_every_numeric_field_names_its_interval(self):
        for cls in (ModelConfig, TrainConfig, SynthSpec):
            numeric = {f.name for f in fields(cls) if f.type in ("int", "float")}
            assert set(cls.INTERVALS) == numeric, cls.__name__

    def test_check_fields_applies_intervals(self):
        cfg = TrainConfig()
        cfg.clip_norm = 0.0
        with pytest.raises(ConfigError, match="clip_norm"):
            check_fields(cfg)


def readme_tables() -> dict:
    """Each key of the README's tables, as {key: (type, allowed)}."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            for key in re.findall(r"`([^`]+)`", cells[0]):
                rows[key] = (cells[1], cells[2])
    return rows


@pytest.mark.parametrize("prefix,cls", [("model.", ModelConfig), ("train.", TrainConfig),
                                        ("", SynthSpec)])
def test_readme_tables_match_the_interval_tables(prefix, cls):
    rows = readme_tables()
    nouns = {"int": "integer", "float": "number", "bool": "bool"}
    for f in fields(cls):
        if f.type not in nouns or (cls is ModelConfig and f.name == "seed"):
            continue  # the model seed is `train.seed`
        kind, allowed = rows[prefix + f.name]
        assert kind == nouns[f.type], f.name
        if f.name in cls.INTERVALS and f.name != "harmonics":  # harmonics lists its set
            assert allowed.startswith(cls.INTERVALS[f.name]), (f.name, allowed)
