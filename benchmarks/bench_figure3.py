"""Figure 3 (a–d): response-code shares of validating resolvers vs it-N.

Paper: NXDOMAIN-with-AD share drops in steps at 50/100/150 iterations;
SERVFAIL share jumps after 150 and stays flat; the same shape across all
four (open/closed × IPv4/IPv6) categories.
"""

from repro.analysis.figures import Figure3Accumulator

from benchmarks.conftest import fold

GRID = (1, 10, 25, 50, 51, 100, 101, 150, 151, 200, 300, 400, 500)

CATEGORIES = (
    ("open", "v4", "(a) Open, IPv4"),
    ("open", "v6", "(b) Open, IPv6"),
    ("closed", "v4", "(c) Closed, IPv4"),
    ("closed", "v6", "(d) Closed, IPv6"),
)


def _entries_for(survey, access, family):
    pool = survey["open"] if access == "open" else survey["closed"]
    return [e for e in pool if e.resolver.family == family]


def test_figure3(benchmark, resolver_survey):
    def build_all():
        return {
            (access, family): fold(
                Figure3Accumulator, _entries_for(resolver_survey, access, family)
            ).figure(title)
            for access, family, title in CATEGORIES
        }

    figures = benchmark(build_all)

    for access, family, title in CATEGORIES:
        fig = figures[(access, family)]
        print(f"\n=== Figure 3 {title}: {fig.validators} validators ===")
        print(f"{'it-N':>6s} {'NXDOMAIN%':>10s} {'AD+NX%':>8s} {'SERVFAIL%':>10s}")
        for count in GRID:
            if count in fig.series:
                nx, adnx, servfail = fig.series[count]
                print(f"{count:6d} {nx:10.1f} {adnx:8.1f} {servfail:10.1f}")

    # Shape assertions on the aggregate (open v4 is the largest category).
    fig = figures[("open", "v4")]
    assert fig.validators >= 20
    ad = {count: fig.series[count][1] for count in fig.series}
    servfail = {count: fig.series[count][2] for count in fig.series}
    # AD share falls monotonically across the vendor thresholds.
    assert ad[1] > ad[101] > ad[151]
    # The drop at 101 reflects the Google-style 100-iteration limit.
    assert ad[100] > ad[101]
    # SERVFAIL is a step after 150 and stays high.
    assert servfail[151] > servfail[150]
    assert servfail[500] >= servfail[151] * 0.9
