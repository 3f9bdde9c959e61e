"""Figure-module helper tests (ordering, scheme constants, coverage of
benchmarks without SDC faults)."""

from types import SimpleNamespace

import pytest

from repro.faults import CoverageOutcome
from repro.faults.campaign import CampaignResult
from repro.harness import figures
from repro.harness.experiment import SCHEMES
from repro.obs.events import NULL_LOG
from repro.workloads import PROFILES, SUITES


def test_ordered_follows_suite_presentation():
    ordered = figures._ordered(tuple(PROFILES))
    assert ordered[:4] == SUITES["specint"]
    assert ordered[-4:] == SUITES["splash"]
    assert len(ordered) == 14


def test_ordered_respects_subsets():
    ordered = figures._ordered(("apache", "bzip2"))
    assert ordered == ["bzip2", "apache"]  # suite order, not input order


def test_ordered_falls_back_for_unknown_names():
    assert figures._ordered(("zzz",)) == ["zzz"]


def test_figure_scheme_constants_are_registered():
    for constant in (figures.FIG8_SCHEMES, figures.FIG9_SCHEMES,
                     figures.FIG10_SCHEMES):
        for scheme in constant:
            assert scheme in SCHEMES


def test_fig8_and_fig9_use_the_paper_lineup():
    assert figures.FIG8_SCHEMES == ("pbfs", "pbfs-biased", "fh-backend",
                                    "faulthound")
    assert "fh-backend" in figures.FIG10_SCHEMES


class _NoSDCContext:
    """Just enough ExperimentContext for figs 8, 11 and 12: mcf has two
    SDC faults (one covered), apache has none."""

    cfg = SimpleNamespace(benchmarks=("mcf", "apache"))
    events = NULL_LOG

    def prefetch(self, **_):
        pass

    def coverage(self, name, scheme):
        outcomes = ({0: CoverageOutcome.RECOVERED,
                     1: CoverageOutcome.NO_TRIGGER} if name == "mcf" else {})
        return CampaignResult(name, scheme, [], outcomes=outcomes)

    def fault_free(self, name, scheme):
        return SimpleNamespace(fp_rate=0.01, cycles=100)


def test_benchmark_without_sdc_is_undefined_not_zero():
    ctx = _NoSDCContext()
    fig8 = figures.fig8(ctx)
    assert set(fig8["coverage"]["apache"].values()) == {None}
    assert fig8["coverage"]["MEAN"] == dict.fromkeys(figures.FIG8_SCHEMES,
                                                      0.5)
    apache_line = next(line for line in fig8["text"].splitlines()
                       if line.startswith("apache"))
    assert apache_line.split()[1:] == ["-"] * 4

    fig11 = figures.fig11(ctx)
    assert set(fig11["rows"]["apache"].values()) == {None}
    mean = fig11["rows"]["MEAN"]
    assert sum(mean.values()) == pytest.approx(1.0)
    assert mean["covered"] == mean["no_trigger"] == 0.5

    fig12 = figures.fig12(ctx)
    assert fig12["right"]["FH-BE"]["coverage"] == 0.5
