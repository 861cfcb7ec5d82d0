"""Staircase envelope checks and the SVG rendering."""

import re

import pytest

from gmetrix import (
    RegionSpec,
    emit_region_svg,
    parse_fn,
    region_bounds,
    region_check,
    render_region_svg,
)
from gmetrix.errors import OutOfRange, PlateauNotVerified, PreconditionViolated

CEIL = parse_fn("ceil(x)")
UNIT_SPEC = RegionSpec(a=1.0, b=1.0, n_max=20)

# like ceil, but worth 3 on (1, 2]: breaches the n=1 upper bound of 2
OVERSHOOT = parse_fn(
    "piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : piece(x <= 2 ? 3 : ceil(x))))")
# like ceil, but worth 1/4 on (1, 2]: dips under the lower bound of 1/2
UNDERSHOOT = parse_fn(
    "piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : piece(x <= 2 ? 1/4 : ceil(x))))")


def test_spec_validation():
    with pytest.raises(PreconditionViolated):
        RegionSpec(a=0.0, b=1.0, n_max=1)
    with pytest.raises(PreconditionViolated):
        RegionSpec(a=1.0, b=-1.0, n_max=1)
    with pytest.raises(PreconditionViolated):
        RegionSpec(a=1.0, b=1.0, n_max=0)
    with pytest.raises(PreconditionViolated):
        RegionSpec(a=1.0, b=1.0, n_max=1, samples_per_interval=1)
    # the top envelope 2^n_max * a must stay a finite float
    with pytest.raises(PreconditionViolated):
        RegionSpec(a=1.0, b=1.0, n_max=1024)
    with pytest.raises(PreconditionViolated):
        RegionSpec(a=1e20, b=1.0, n_max=1000)
    assert RegionSpec.MAX_SAMPLES == 1_000
    for samples in (RegionSpec.MAX_SAMPLES + 1, 10 ** 12):
        with pytest.raises(PreconditionViolated, match="exceeds the cap"):
            RegionSpec(a=1.0, b=1.0, n_max=1, samples_per_interval=samples)


def test_region_bounds_values():
    assert region_bounds(UNIT_SPEC, 1) == (0.5, 2.0)
    assert region_bounds(UNIT_SPEC, 3) == (0.5, 8.0)
    doubled = RegionSpec(a=2.0, b=1.0, n_max=5)
    assert region_bounds(doubled, 2) == (1.0, 8.0)
    widest = RegionSpec(a=1.0, b=1.0, n_max=1023)
    assert region_bounds(widest, 1023) == (0.5, 2.0 ** 1023)


def test_region_bounds_range_errors():
    with pytest.raises(OutOfRange):
        region_bounds(UNIT_SPEC, 0)
    with pytest.raises(OutOfRange):
        region_bounds(UNIT_SPEC, 21)
    with pytest.raises(OutOfRange):
        region_bounds(UNIT_SPEC, 1.0)  # float n is not an index


def test_ceiling_stays_inside_the_envelope():
    report = region_check(CEIL, UNIT_SPEC)
    assert report.all_hold
    assert report.plateau_value == 1.0
    assert len(report.intervals) == 20
    assert report.violations == ()
    # n = 1 is the tight case: ceil reaches 2 and the upper bound is 2
    assert report.intervals[0].upper == 2.0


def test_overshoot_fails_exactly_the_first_interval():
    report = region_check(OVERSHOOT, RegionSpec(a=1.0, b=1.0, n_max=20))
    failing = [item.n for item in report.intervals if item.verdict.fails]
    assert failing == [1]
    item = report.intervals[0]
    assert item.upper == 2.0
    assert item.verdict.witness.data["side"] == "upper"
    assert item.verdict.witness.data["value"] == 3.0
    assert {n for n, _, _, _ in report.violations} == {1}


def test_undershoot_fails_exactly_the_first_interval_from_below():
    report = region_check(UNDERSHOOT, RegionSpec(a=1.0, b=1.0, n_max=20))
    failing = [item.n for item in report.intervals if item.verdict.fails]
    assert failing == [1]
    witness = report.intervals[0].verdict.witness
    assert witness.data["side"] == "lower"
    assert witness.data["value"] == 0.25
    assert report.intervals[0].lower == 0.5


def test_non_plateau_functions_are_rejected():
    with pytest.raises(PlateauNotVerified):
        region_check(parse_fn("x^2"), UNIT_SPEC)
    with pytest.raises(PlateauNotVerified):
        region_check(parse_fn("max(x, 1)"), UNIT_SPEC)  # f(0) != 0
    with pytest.raises(PlateauNotVerified):
        # right plateau shape, wrong declared level
        region_check(CEIL, RegionSpec(a=2.0, b=1.0, n_max=3))


def test_report_json_shape():
    doc = region_check(OVERSHOOT, RegionSpec(a=1.0, b=1.0, n_max=2)).to_json()
    assert doc["all_hold"] is False
    assert doc["violations"][0]["n"] == 1
    assert doc["violations"][0]["side"] == "upper"
    assert [item["n"] for item in doc["intervals"]] == [1, 2]


def test_svg_structure():
    spec = RegionSpec(a=1.0, b=1.0, n_max=4)
    report = region_check(OVERSHOOT, spec)
    svg = render_region_svg(OVERSHOOT, spec, report)
    assert svg.startswith("<svg ")
    assert 'viewBox="0 0 640 400"' in svg
    for element_id in ("guide-half-a", "guide-a", "guide-two-a",
                       "lower-bound", "fn-path"):
        assert f'id="{element_id}"' in svg
    assert re.findall(r'id="step-(\d+)"', svg) == ["1", "2", "3", "4"]
    markers = re.findall(r'id="violation-(\d+)"', svg)
    assert markers == [str(k) for k in range(len(report.violations))]
    assert "<title>interval 1, upper bound</title>" in svg
    # all coordinates are fixed-precision, so no scientific notation leaks
    assert not re.search(r"\de[+-]?\d", svg)


def test_svg_escapes_sources():
    f = parse_fn("piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : 2))")
    spec = RegionSpec(a=1.0, b=1.0, n_max=2)
    svg = render_region_svg(f, spec, region_check(f, spec))
    assert "x &lt;= 0" in svg
    assert "x <= 0" not in svg


def test_emit_is_atomic_and_byte_stable(tmp_path):
    target = tmp_path / "region.svg"
    spec = RegionSpec(a=1.0, b=1.0, n_max=3)
    report = emit_region_svg(CEIL, spec, target)
    assert report.all_hold
    first = target.read_bytes()
    emit_region_svg(CEIL, spec, target)
    assert target.read_bytes() == first
    assert not (tmp_path / "region.svg.tmp").exists()


def test_emit_removes_its_temp_file_when_the_write_fails(tmp_path):
    target = tmp_path / "out.svg"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        emit_region_svg(CEIL, RegionSpec(a=1.0, b=1.0, n_max=3), target)
    assert target.is_dir()
    assert not (tmp_path / "out.svg.tmp").exists()


def test_emit_rejects_before_writing(tmp_path):
    target = tmp_path / "region.svg"
    with pytest.raises(PlateauNotVerified):
        emit_region_svg(parse_fn("x^2"), UNIT_SPEC, target)
    assert not target.exists()
