"""Tests for the paper-figure plotting layer (``repro.sweep.plotting``)."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import ReproError
from repro.sweep import (
    build_figures,
    cdf_figure,
    load_grid_results,
    render_figures,
    render_svg,
    robustness_figure,
    satisfied_samples,
    scheme_colors,
    speedup_figure,
)
from repro.sweep.analytics import analyze
from repro.sweep.plotting import PALETTE, SCHEME_SLOTS

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_PATHS = [
    str(FIXTURES / "grid_mini_small.json"),
    str(FIXTURES / "grid_mini_large.json"),
]

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def results():
    return load_grid_results(FIXTURE_PATHS)


@pytest.fixture(scope="module")
def analytics(results):
    return analyze(results, sources=FIXTURE_PATHS)


def svg_texts(svg: str) -> list[str]:
    root = ET.fromstring(svg)  # raises on malformed XML
    return ["".join(t.itertext()) for t in root.iter(f"{SVG_NS}text")]


class TestSchemeColors:
    def test_paper_schemes_keep_their_fixed_slots(self):
        colors = scheme_colors(["LP-all", "Teal"])
        assert colors["Teal"] == PALETTE[SCHEME_SLOTS["Teal"]]
        assert colors["LP-all"] == PALETTE[SCHEME_SLOTS["LP-all"]]

    def test_color_follows_the_entity_not_the_series_count(self):
        # Filtering schemes away must not repaint the survivors.
        assert (
            scheme_colors(["Teal"])["Teal"]
            == scheme_colors(["LP-all", "NCFlow", "Teal"])["Teal"]
        )

    def test_unknown_schemes_get_deterministic_free_slots(self):
        a = scheme_colors(["Zeta", "Alpha"])
        b = scheme_colors(["Alpha", "Zeta"])
        assert a == b  # order-insensitive assignment
        assert len(set(a.values())) == 2

    def test_unknowns_never_steal_a_present_schemes_slot(self):
        colors = scheme_colors(["Teal", "Mystery"])
        assert colors["Teal"] == PALETTE[SCHEME_SLOTS["Teal"]]
        assert colors["Mystery"] != colors["Teal"]


class TestSatisfiedSamples:
    def test_pools_across_results_sorted_by_scheme(self, results):
        samples = satisfied_samples(results)
        assert list(samples) == sorted(samples)
        expected = sum(
            len(c.run.satisfied)
            for r in results
            for c in r.cells
            if c.scheme == "Teal"
        )
        assert len(samples["Teal"]) == expected

    def test_failure_filter_restricts_the_pool(self, results):
        all_levels = satisfied_samples(results)
        nominal = satisfied_samples(results, failure_count=0)
        assert len(nominal["Teal"]) <= len(all_levels["Teal"])
        assert satisfied_samples(results, failure_count=99) == {}


class TestFigureBuilders:
    def test_speedup_series_per_precision(self, analytics):
        spec = speedup_figure(analytics)
        assert spec.slug == "speedup"
        names = {series.name for series in spec.series}
        assert names == {p.precision for p in analytics.curve}
        for series in spec.series:
            assert list(series.x) == sorted(series.x)

    def test_cdf_is_a_monotone_step_to_one(self, results):
        spec = cdf_figure(results)
        assert spec.slug == "satisfied_cdf"
        assert spec.step and spec.x_percent and spec.y_percent
        for series in spec.series:
            assert series.y[0] == 0.0
            assert series.y[-1] == 1.0
            assert list(series.y) == sorted(series.y)
            assert list(series.x) == sorted(series.x)

    def test_robustness_ticks_cover_failure_levels(self, results, analytics):
        spec = robustness_figure(analytics)
        assert spec.slug == "failure_robustness"
        levels = {float(c.failure_count) for r in results for c in r.cells}
        assert set(spec.xticks) == levels

    def test_build_figures_is_the_full_set(self, results, analytics):
        specs = build_figures(results, analytics)
        assert [s.slug for s in specs] == [
            "speedup", "satisfied_cdf", "failure_robustness",
        ]

    def test_empty_inputs_raise_clean_errors(self, analytics):
        with pytest.raises(ReproError, match="no satisfied-demand samples"):
            cdf_figure([])


class TestRenderSvg:
    def test_figures_render_to_wellformed_svg(self, results, analytics):
        for spec in build_figures(results, analytics):
            svg = render_svg(spec)
            texts = svg_texts(svg)
            assert spec.title in texts
            assert spec.xlabel in texts

    def test_schemes_are_directly_labeled(self, results):
        texts = svg_texts(render_svg(cdf_figure(results)))
        # Legend chip + direct line label: each scheme appears twice.
        assert sum(t == "Teal" for t in texts) == 2
        assert sum(t == "LP-all" for t in texts) == 2

    def test_rendering_is_deterministic(self, results, analytics):
        spec = speedup_figure(analytics)
        assert render_svg(spec) == render_svg(spec)


class TestRenderFigures:
    def test_writes_the_figure_set(self, results, analytics, tmp_path):
        written = render_figures(results, analytics, tmp_path, prefix="mini")
        assert [p.name for p in written] == [
            "mini_speedup.svg",
            "mini_satisfied_cdf.svg",
            "mini_failure_robustness.svg",
        ]
        for path in written:
            assert svg_texts(path.read_text())


class TestCliPlot:
    def test_plot_end_to_end(self, tmp_path, capsys):
        rc = main(
            ["plot", *FIXTURE_PATHS, "--output-dir", str(tmp_path),
             "--prefix", "mini"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        for slug in ("speedup", "satisfied_cdf", "failure_robustness"):
            path = tmp_path / f"mini_{slug}.svg"
            assert path.exists()
            assert str(path) in out

    def test_malformed_input_is_a_clean_failure(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"suite": ')
        rc = main(["plot", str(bad), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "broken.json" in err

    def test_missing_input_is_a_clean_failure(self, tmp_path, capsys):
        rc = main(
            ["plot", str(tmp_path / "absent.json"),
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err
