"""Config parsing/validation, CSV round trips, JSON and SVG emission."""

import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphene_spp.config import (ConfigError, RunConfig, config_hash,
                                 load_config, parse_config)
from graphene_spp.io import (emit_csv, emit_json, format_number, read_csv)
from graphene_spp.svg import (_ANCHORS, _INVALID_FILL, _colors,
                              emit_svg_heatmap, emit_svg_lines)


def test_empty_file_gives_full_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    config = load_config(path)
    assert config.lambda0_um == 10.0
    assert config.E_F_eV == 0.15
    assert config.eps_h == 3.9
    assert config.R_nm == 800.0
    assert config.delta_nm == 200.0
    assert config.d_min_nm == 20.0
    assert config.L_um == 1.0
    assert config.gamma_per_s == 2e12


def test_negative_radius_rejected_with_constraint(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("R_nm = -5\n")
    with pytest.raises(ConfigError, match="radius > 0"):
        load_config(path)


def test_partial_override_keeps_other_defaults(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("E_F_eV = 0.2\n")
    config = load_config(path)
    assert config.E_F_eV == 0.2
    assert config.lambda0_um == 10.0
    assert config.R_nm == 800.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("towel_count = 42\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config("R_nm 800\n")


def test_non_numeric_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("L_um = one\n")


def test_comments_and_blank_lines_ignored():
    config = parse_config("# a comment\n\nL_um = 0.5\n")
    assert config.L_um == 0.5


def test_gamma_auto_resolves_from_mobility():
    config = parse_config("gamma_per_s = auto\n")
    assert config.gamma() == pytest.approx(1.1111e12, rel=1e-4)


def test_invalid_geometry_combination_rejected():
    # R too small for the configured device length
    with pytest.raises(ConfigError):
        parse_config("R_nm = 400\n").geometry()


_KEYS = sorted(RunConfig.__dataclass_fields__) + ["step_divisor", "bogus"]
_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1e999",
                     "1e-999", "NaN", "Infinity", "auto", "", "csv,svg",
                     "vacuum", "no_two_pi"]),
    st.text(alphabet="0123456789.e+-nainf_ #=,", max_size=10),
)
_LINES = st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES)
                  .map(lambda item: f"{item[0]} = {item[1]}"), max_size=6)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_LINES)
def test_parsed_config_is_finite_or_config_error(lines):
    try:
        config = parse_config("\n".join(lines))
    except ConfigError:
        return
    for name in RunConfig.__dataclass_fields__:
        value = getattr(config, name)
        if isinstance(value, (int, float)):
            assert math.isfinite(value), (name, value)


@pytest.mark.parametrize("values, message", [
    ({"n_samples": 10}, "n_samples: must be at least 64"),
    ({"n_samples": 100.5}, "n_samples: expected an integer, got 100.5"),
    ({"formats": "pdf"}, r"formats: unknown format\(s\) \['pdf'\]"),
    ({"k0_convention": "Vacuum"}, "k0_convention: must be one of"),
    ({"L_um": math.nan}, "L_um: expected a finite number, got nan"),
    ({"R_nm": 400.0}, "arcs do not span the device"),
], ids=["short-grid", "fractional-grid", "format", "convention", "nan",
        "arc-rule"])
def test_run_config_built_in_code_is_checked(values, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(**values)
    with pytest.raises(ConfigError, match=message):
        replace(RunConfig(), **values)


def _near(default):
    return st.one_of(st.floats(), st.floats(0.4 * default, 2.5 * default),
                     st.text(max_size=3))


_FIELD_VALUES = {
    "lambda0_um": _near(10.0), "E_F_eV": _near(0.15),
    "mobility_cm2_per_V_s": _near(6e4), "v_F_m_per_s": _near(1e6),
    "thickness_nm": _near(0.33),
    "gamma_per_s": st.one_of(_near(2e12), st.just("auto")),
    "gamma_convention": st.sampled_from(["no_two_pi", "literal_two_pi",
                                         "auto", ""]),
    "k0_convention": st.sampled_from(["vacuum", "film", "Vacuum"]),
    "eps_h": _near(3.9), "R_nm": _near(800.0), "delta_nm": _near(200.0),
    "d_min_nm": _near(20.0), "L_um": _near(1.0),
    "n_samples": st.one_of(st.integers(0, 8192), st.floats(0, 8192)),
    "out_dir": st.text(alphabet="abc_-./0123456789", max_size=8),
    "formats": st.lists(st.sampled_from(["csv", "json", "svg", "pdf"]),
                        max_size=3).map(",".join),
}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.fixed_dictionaries({}, optional=_FIELD_VALUES))
def test_run_config_is_valid_or_config_error(values):
    try:
        config = RunConfig(**values)
    except ConfigError:
        return
    config.geometry()
    config.sheet()
    config.medium()
    config.excitation()
    text = "\n".join(f"{field.name} = {getattr(config, field.name)}"
                     for field in fields(config))
    assert config_hash(parse_config(text)) == config_hash(config)


def test_config_hash_is_stable_and_sensitive(default_config):
    assert config_hash(default_config) == config_hash(RunConfig())
    other = parse_config("E_F_eV = 0.2\n")
    assert config_hash(other) != config_hash(default_config)


def test_goldens_were_generated_from_the_default_config(goldens):
    # tools/generate_goldens.py records the hash of the config it ran
    assert goldens["config_hash"] == config_hash(RunConfig())


def test_format_number_round_trips():
    values = [1.0, math.pi, 1.23456789012345e-17, -4.092e6, 0.0]
    for value in values:
        assert float(format_number(value)) == value


def test_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    table = np.array([[1.0, math.pi], [2.0, -1.5e-12],
                      [math.nan, math.inf], [-math.inf, -0.0]])
    emit_csv(path, ["x_um", "value"], table, config_hash="f00d")
    header, data = read_csv(path)
    assert header == ["x_um", "value"]
    data = np.asarray(data)
    assert data.dtype == float
    np.testing.assert_array_equal(data, table)
    assert math.copysign(1.0, data[3, 1]) == -1.0
    lines = path.read_text().splitlines()
    assert "config_hash=f00d" in lines[0]
    assert lines[4:] == ["nan,inf", "-inf,-0"]


def test_read_csv_rejects_a_non_numeric_cell(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# config_hash=f00d\nx_um,value\n1,2\n3,oops\n")
    with pytest.raises(ValueError, match="line 4.*oops"):
        read_csv(path)


def test_csv_newline_terminated(tmp_path):
    path = tmp_path / "table.csv"
    emit_csv(path, ["a"], np.array([[1.0]]))
    assert path.read_text().endswith("\n")


@pytest.mark.parametrize("table", [
    np.array([1.0, 2.0]), np.zeros((2, 2, 2)), [["a", "b"]],
    np.array([[1.0 + 2.0j]]), [[1.0, 2.0], [3.0]], [[1.0, None]],
], ids=["1-D", "3-D", "text", "complex", "ragged", "object"])
def test_emit_csv_rejects_tables_that_are_not_2d_real(tmp_path, table):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        emit_csv(path, ["a", "b"], table)
    assert not path.exists()


def test_emit_json_embeds_hash_and_version(tmp_path):
    path = tmp_path / "meta.json"
    emit_json(path, {"answer": 42}, config_hash="beef", version="0.1.0")
    payload = json.loads(path.read_text())
    assert payload["config_hash"] == "beef"
    assert payload["version"] == "0.1.0"
    assert payload["answer"] == 42


def test_emit_json_handles_numpy_types(tmp_path):
    path = tmp_path / "meta.json"
    emit_json(path, {"arr": np.arange(3), "val": np.float64(1.5)},
              config_hash="c0de", version="0")
    payload = json.loads(path.read_text())
    assert payload["arr"] == [0, 1, 2]
    assert payload["val"] == 1.5


def test_svg_heatmap_single_cell(tmp_path):
    path = tmp_path / "one.svg"
    emit_svg_heatmap(path, np.array([[0.5]]), np.array([1.0]),
                     np.array([2.0]), "x", "y", "single", "cafe")
    text = path.read_text()
    assert text.startswith("<svg")
    assert "config_hash=cafe" in text
    assert "<rect" in text


def test_svg_heatmap_marks_invalid_cells(tmp_path):
    path = tmp_path / "nan.svg"
    matrix = np.array([[0.1, np.nan], [0.9, 0.4]])
    emit_svg_heatmap(path, matrix, np.array([1.0, 2.0]),
                     np.array([1.0, 2.0]), "x", "y", "map", "cafe")
    text = path.read_text()
    assert "#b4b4b4" in text
    assert "invalid" in text


def _scalar_color(t: float) -> str:
    # The scalar color scale that _colors replaced, kept as its reference.
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_ANCHORS) - 1)
    i = min(int(pos), len(_ANCHORS) - 2)
    frac = pos - i
    r, g, b = (round(a + (b_ - a) * frac)
               for a, b_ in zip(_ANCHORS[i], _ANCHORS[i + 1]))
    return f"#{r:02x}{g:02x}{b:02x}"


def _exact_half_positions():
    """Scale positions where some channel lands exactly on k + 0.5, so the
    rounding rule (half to even) decides the color."""
    found = []
    for i in range(len(_ANCHORS) - 1):
        for a, b in zip(_ANCHORS[i], _ANCHORS[i + 1]):
            span = abs(b - a)
            for j in range(span):
                t = (i + (j + 0.5) / span) / (len(_ANCHORS) - 1)
                pos = t * (len(_ANCHORS) - 1)
                value = a + (b - a) * (pos - min(int(pos),
                                                 len(_ANCHORS) - 2))
                if value - math.floor(value) == 0.5:
                    found.append(t)
    return found


def test_colors_match_the_scalar_scale():
    halves = _exact_half_positions()
    assert len(halves) > 50
    t = np.concatenate([np.linspace(-0.5, 1.5, 20001), halves,
                        [0.0, 1.0, -math.inf, math.inf, -1e300, 1e300]])
    assert _colors(t) == [_scalar_color(v) for v in t.tolist()]


def test_colors_mark_nan_invalid():
    assert _colors(np.array([0.0, math.nan, 1.0])) == [
        _scalar_color(0.0), _INVALID_FILL, _scalar_color(1.0)]


def test_svg_heatmap_with_invalid_cells_emits_no_warning(tmp_path):
    matrix = np.array([[math.nan, 0.2, math.inf],
                       [0.5, math.nan, -math.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emit_svg_heatmap(tmp_path / "nan.svg", matrix, np.arange(3.0),
                         np.arange(2.0), "x", "y", "map", "cafe")
    assert (tmp_path / "nan.svg").read_text().count(_INVALID_FILL) >= 2


def test_svg_lines_smoke(tmp_path):
    path = tmp_path / "lines.svg"
    x = np.linspace(1.0, 10.0, 20)
    emit_svg_lines(path, x, [("a", np.exp(-x)), ("b", np.exp(-2 * x))],
                   "x", "y", "decay", "cafe", log_y=True)
    text = path.read_text()
    assert text.count("<polyline") == 2


def test_emission_is_deterministic(tmp_path, default_config):
    digest = config_hash(default_config)
    table = np.array([[1.0, 2.0], [3.0, 4.0]])
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_csv(a, ["p", "q"], table, config_hash=digest)
    emit_csv(b, ["p", "q"], table, config_hash=digest)
    assert a.read_bytes() == b.read_bytes()


def test_emit_json_writes_nonfinite_floats_as_csv_tokens(tmp_path):
    path = tmp_path / "meta.json"
    emit_json(path, {"inf": math.inf, "ninf": np.float64(-math.inf),
                     "arr": np.array([1.0, math.nan]),
                     "c": complex(math.inf, 0.5)},
              config_hash="c0de", version="0")

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(path.read_text(), parse_constant=reject)
    assert payload["inf"] == "inf" and payload["ninf"] == "-inf"
    assert payload["arr"] == [1.0, "nan"]
    assert payload["c"] == {"re": "inf", "im": 0.5}
    assert [float(payload[key]) for key in ("inf", "ninf")] == [
        math.inf, -math.inf]
