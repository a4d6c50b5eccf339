"""Tests for profile generation and CSV exchange."""

import csv
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ou_reference
import profile_csv_reference

import microfreq.profiles as profiles_module
from microfreq.profiles import (
    PROFILE_COLUMNS,
    PROFILE_KINDS,
    ProfileSet,
    STEP_LOAD_EVENTS,
    generate_profiles,
    read_profiles_csv,
    write_profiles_csv,
)
from microfreq.simulate import make_scenario


def test_step_kind_load_events_and_calm_weather():
    p = generate_profiles("step", seed=0, duration=120.0)
    t = p.t
    assert np.all(p.load_pu[t < 30.0 - 1e-9] == 0.0)
    assert np.all(p.load_pu[(t >= 30.0) & (t < 60.0 - 1e-9)] == 0.05)
    assert np.all(p.load_pu[(t >= 60.0) & (t < 90.0 - 1e-9)] == 0.0)
    assert np.all(p.load_pu[t >= 90.0] == 0.10)
    assert np.all(p.v_w == p.v_w[0, 0])
    assert np.all(p.g_eff == p.g_eff[0, 0])
    assert STEP_LOAD_EVENTS[-1][0] == 90.0  # the large event sits at 90 s


def test_generated_series_respect_clips():
    for kind in ("moderate", "rapid"):
        for seed in range(3):
            p = generate_profiles(kind, seed=seed, duration=180.0)
            assert p.g_eff.min() >= 0.0 and p.g_eff.max() <= 1200.0
            assert p.v_w.min() >= 0.0 and p.v_w.max() <= 25.0


def test_generation_deterministic():
    a = generate_profiles("rapid", seed=7, duration=180.0)
    b = generate_profiles("rapid", seed=7, duration=180.0)
    assert np.array_equal(a.load_pu, b.load_pu)
    assert np.array_equal(a.v_w, b.v_w)
    assert np.array_equal(a.g_eff, b.g_eff)


def test_rapid_increments_at_least_3x_moderate():
    mod = generate_profiles("moderate", seed=4, duration=180.0)
    rap = generate_profiles("rapid", seed=4, duration=180.0)
    for series_mod, series_rap in (
        (mod.v_w[0], rap.v_w[0]),
        (mod.v_w[1], rap.v_w[1]),
        (mod.g_eff[0], rap.g_eff[0]),
        (mod.g_eff[1], rap.g_eff[1]),
    ):
        ratio = np.diff(series_rap).std() / np.diff(series_mod).std()
        assert ratio >= 3.0


def test_rapid_keeps_the_moderate_load_stream():
    mod = generate_profiles("moderate", seed=11, duration=180.0)
    rap = generate_profiles("rapid", seed=11, duration=180.0)
    assert np.array_equal(mod.load_pu, rap.load_pu)


def test_grid_length_and_spacing():
    p = generate_profiles("moderate", seed=0, duration=180.0)
    assert p.t.shape[0] == 901
    assert p.ts == pytest.approx(0.2)
    assert p.duration == pytest.approx(180.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown profile kind"):
        generate_profiles("extreme", seed=0, duration=10.0)
    with pytest.raises(ValueError):
        generate_profiles("step", seed=0, duration=0.0)


# ts is the sample time every profile set is generated at.
@pytest.mark.parametrize("duration, ts", [(0.05, 0.2), (0.1, 0.2)])
def test_duration_below_half_a_sample_rejected(duration, ts):
    message = f"duration {duration} s is below half the sample time {ts} s"
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_profiles("step", 0, duration)
    assert generate_profiles("step", 0, 0.6 * ts).t.shape == (2,)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_duration_rejected(duration):
    # Rejected before the grid is sized, with a message that names the
    # duration, from either entry point.
    message = f"duration must be finite and > 0, got {duration!r}"
    for kind in PROFILE_KINDS:
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_profiles(kind, 0, duration)
        with pytest.raises(ValueError, match=re.escape(message)):
            make_scenario(kind, "mpc", 0, duration=duration)


_ou_numbers = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       mu=st.one_of(_ou_numbers, st.integers(-1000, 1000)), theta=st.floats(0.0, 5.0),
       sigma=st.floats(0.0, 100.0), clip=st.lists(_ou_numbers, min_size=2, max_size=2).map(sorted))
def test_ou_series_matches_its_previous_version(seed, n, mu, theta, sigma, clip):
    # The float loop does the old recursion's IEEE operations in its order.
    got = profiles_module._ou_series(np.random.default_rng(seed), n, mu, theta, sigma, clip)
    want = ou_reference._ou_series(np.random.default_rng(seed), n, mu, theta, sigma, clip)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_csv_roundtrip(tmp_path):
    p = generate_profiles("rapid", seed=3, duration=60.0)
    path = tmp_path / "profiles.csv"
    write_profiles_csv(path, p)
    q = read_profiles_csv(path)
    assert np.allclose(p.t, q.t, atol=0)
    assert np.allclose(p.load_pu, q.load_pu, atol=0)
    assert np.allclose(p.v_w, q.v_w, atol=0)
    assert np.allclose(p.g_eff, q.g_eff, atol=0)


def test_csv_header_is_strict(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,load_pu,v_w2,v_w1,g_eff1,g_eff2,t_amb\n0,0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        read_profiles_csv(path)
    assert PROFILE_COLUMNS[0] == "t"


def test_profileset_validation():
    t = np.arange(5) * 0.2
    with pytest.raises(ValueError):
        ProfileSet(t=t, load_pu=np.zeros(4), v_w=np.zeros((2, 5)),
                   g_eff=np.zeros((2, 5)), t_amb=np.zeros(5))
    with pytest.raises(ValueError):
        ProfileSet(t=t, load_pu=np.zeros(5), v_w=np.zeros((3, 5)),
                   g_eff=np.zeros((2, 5)), t_amb=np.zeros(5))


# ------------------------------------------------------- ingest validation

PROFILE_FIELDS = ("t", "load_pu", "v_w", "g_eff", "t_amb")
# Where each CSV column lands in a ProfileSet: (field, unit row or None).
COLUMN_FIELDS = {
    "t": ("t", None), "load_pu": ("load_pu", None),
    "v_w1": ("v_w", 0), "v_w2": ("v_w", 1),
    "g_eff1": ("g_eff", 0), "g_eff2": ("g_eff", 1),
    "t_amb": ("t_amb", None),
}
INGEST_SECONDS = 20.0
INGEST_ROWS = int(INGEST_SECONDS / 0.2) + 1

kinds = st.sampled_from(PROFILE_KINDS)
seeds = st.integers(0, 10_000)
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])
samples = st.integers(0, INGEST_ROWS - 1)
# Shifts of the grid from sample k >= 2 on, both ways, never below 1e-6 s.
# The first spacing sets the grid step, so t[k] is the first bad sample.
shifted_from = st.integers(2, INGEST_ROWS - 1)
shifts = st.floats(1e-6, 0.15).flatmap(lambda v: st.sampled_from([v, -v]))


def profile_fields(profiles):
    return {name: getattr(profiles, name).copy() for name in PROFILE_FIELDS}


def csv_rows(kind, seed):
    """A generated profile written to CSV and read back as rows of text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profiles.csv")
        write_profiles_csv(path, generate_profiles(kind, seed, INGEST_SECONDS))
        with open(path, newline="") as fh:
            return list(csv.reader(fh))


def read_csv_rows(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profiles.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return read_profiles_csv(path)


def assert_csv_matches_reference(profiles, directory):
    got, want = directory / "got.csv", directory / "want.csv"
    write_profiles_csv(got, profiles)
    profile_csv_reference.write_profiles_csv(want, profiles)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_csv_matches_reference_bytes(kind, tmp_path):
    assert_csv_matches_reference(generate_profiles(kind, 7, 180.0), tmp_path)


@settings(max_examples=30)
@given(kinds, seeds, st.floats(1.0, 300.0))
def test_generated_profile_csv_matches_reference_bytes(kind, seed, duration):
    with tempfile.TemporaryDirectory() as tmp:
        assert_csv_matches_reference(generate_profiles(kind, seed, duration), Path(tmp))


@given(kinds, seeds, st.floats(1.0, 300.0))
def test_generated_profiles_pass_ingest(kind, seed, duration):
    p = generate_profiles(kind, seed, duration)
    assert np.abs(np.diff(p.t) - p.ts).max() <= 1e-9 * p.ts


@given(kinds, seeds, st.sampled_from(PROFILE_FIELDS), st.integers(0, 1), samples, non_finite)
def test_non_finite_entry_rejected_at_ingest(kind, seed, name, unit, k, value):
    fields = profile_fields(generate_profiles(kind, seed, INGEST_SECONDS))
    if fields[name].ndim == 2:
        fields[name][unit, k] = value
        index = f"{unit}, {k}"
    else:
        fields[name][k] = value
        index = f"{k}"
    with pytest.raises(ValueError, match=re.escape(f"profile {name}[{index}] is not finite")):
        ProfileSet(**fields)


@given(kinds, seeds, st.sampled_from(PROFILE_COLUMNS), samples,
       st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_csv_entry_rejected_at_ingest(kind, seed, column, k, text):
    rows = csv_rows(kind, seed)
    rows[1 + k][PROFILE_COLUMNS.index(column)] = text
    name, unit = COLUMN_FIELDS[column]
    index = f"{k}" if unit is None else f"{unit}, {k}"
    with pytest.raises(ValueError, match=re.escape(f"profile {name}[{index}] is not finite")):
        read_csv_rows(rows)


@given(kinds, seeds, shifted_from, shifts)
def test_uneven_grid_rejected_at_ingest(kind, seed, k, shift):
    fields = profile_fields(generate_profiles(kind, seed, INGEST_SECONDS))
    fields["t"][k:] += shift
    with pytest.raises(ValueError, match=re.escape(f"t[{k}] - t[{k - 1}]")):
        ProfileSet(**fields)


@given(kinds, seeds, shifted_from, shifts)
def test_uneven_csv_grid_rejected_at_ingest(kind, seed, k, shift):
    rows = csv_rows(kind, seed)
    for row in rows[1 + k:]:
        row[0] = f"{float(row[0]) + shift:.15e}"
    with pytest.raises(ValueError, match=re.escape(f"t[{k}] - t[{k - 1}]")):
        read_csv_rows(rows)


def test_grid_shifted_part_way_names_the_first_bad_sample():
    p = generate_profiles("rapid", seed=3, duration=180.0)
    fields = profile_fields(p)
    fields["t"][50:] += 0.05
    with pytest.raises(ValueError, match=re.escape("t[50] - t[49] = 0.25")):
        ProfileSet(**fields)


@given(kinds, seeds, st.sampled_from(PROFILE_COLUMNS), samples,
       st.sampled_from(["ten", "", "1.0.0"]))
def test_non_numeric_csv_cell_named_at_ingest(kind, seed, column, k, text):
    rows = csv_rows(kind, seed)
    rows[1 + k][PROFILE_COLUMNS.index(column)] = text
    message = f"profile CSV data row {k + 1}, column {column}: {text!r} is not a number"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_csv_rows(rows)


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0662"], ids=["underscore", "arabic-indic"])
def test_csv_cells_only_float_reads_are_not_numbers_at_ingest(text):
    # float() reads both as numbers (10.0 and 12.0); the vectorized ingest
    # does not, and the message names them as it names any other bad cell.
    assert float(text) in (10.0, 12.0)
    rows = csv_rows("rapid", 1)
    rows[5][PROFILE_COLUMNS.index("v_w1")] = text
    message = f"profile CSV data row 5, column v_w1: {text!r} is not a number"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_csv_rows(rows)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=7, max_size=70),
       st.sampled_from(["{:.15e}", "{!r}", "{:.17g}", " {:.6e} ", '"{!r}"']))
def test_csv_ingest_reads_every_number_as_float_does(values, form):
    # Subnormals and -0.0 included; a quoted cell reads as csv unquotes it.
    rows = len(values) // 7
    cells = [form.format(v) for v in values[:7 * rows]]
    parsed = profiles_module._numbers(
        [",".join(cells[7 * i:7 * i + 7]) for i in range(rows)], quotechar='"')
    expected = np.array([float(cell.strip().strip('"')) for cell in cells]).reshape(rows, 7)
    assert parsed.tobytes() == expected.tobytes()


def test_csv_ingest_skips_blank_lines_and_counts_only_data_rows(tmp_path):
    path = tmp_path / "profiles.csv"
    write_profiles_csv(path, generate_profiles("moderate", 2, INGEST_SECONDS))
    p = read_profiles_csv(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["", ""] + lines[3:]) + "\n\n")
    q = read_profiles_csv(path)
    for name in PROFILE_FIELDS:
        assert getattr(q, name).tobytes() == getattr(p, name).tobytes(), name
    lines[3] = lines[3].replace(",", ",x", 1)
    path.write_text("\n".join(lines[:3] + ["", "  "] + lines[3:]) + "\n")
    # A line of spaces is not blank: it is data row 3, one cell that is no number.
    with pytest.raises(ValueError, match=re.escape("data row 3, column t: '  ' is not a number")):
        read_profiles_csv(path)


@given(kinds, seeds, samples, st.integers(1, len(PROFILE_COLUMNS) - 1))
def test_missing_csv_cell_named_at_ingest(kind, seed, k, width):
    rows = csv_rows(kind, seed)
    rows[1 + k] = rows[1 + k][:width]
    message = (f"profile CSV data row {k + 1} has {width} cells, expected 7: "
               f"column {PROFILE_COLUMNS[width]} is missing")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_csv_rows(rows)


def test_short_csv_rows_throughout_named_at_ingest():
    rows = [row[:-1] if i else row for i, row in enumerate(csv_rows("step", 0))]
    with pytest.raises(ValueError, match=re.escape("data row 1 has 6 cells, expected 7: "
                                                   "column t_amb is missing")):
        read_csv_rows(rows)


def test_extra_csv_cell_named_at_ingest():
    rows = csv_rows("rapid", 2)
    rows[3].append("1.0")
    with pytest.raises(ValueError, match=re.escape("data row 3 has 8 cells, expected 7")):
        read_csv_rows(rows)


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_empty_csv_rejected_at_ingest(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    message = f"profile CSV header () does not match required {PROFILE_COLUMNS}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_profiles_csv(path)


def test_header_only_csv_rejected_at_ingest():
    with pytest.raises(ValueError, match="profile CSV has no data rows"):
        read_csv_rows(csv_rows("step", 0)[:1])


# Offsets of the whole grid, both ways, well beyond the 1e-9 relative tolerance.
offsets = st.floats(1e-6, 100.0).flatmap(lambda v: st.sampled_from([v, -v]))


@given(kinds, seeds, offsets)
def test_grid_not_starting_at_zero_rejected_at_ingest(kind, seed, offset):
    fields = profile_fields(generate_profiles(kind, seed, INGEST_SECONDS))
    fields["t"] += offset
    message = f"time grid must start at 0, got t[0] = {float(fields['t'][0])!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ProfileSet(**fields)


@given(kinds, seeds, offsets)
def test_csv_grid_not_starting_at_zero_rejected_at_ingest(kind, seed, offset):
    rows = csv_rows(kind, seed)
    for row in rows[1:]:
        row[0] = f"{float(row[0]) + offset:.15e}"
    with pytest.raises(ValueError, match=re.escape(f"got t[0] = {float(rows[1][0])!r}")):
        read_csv_rows(rows)
