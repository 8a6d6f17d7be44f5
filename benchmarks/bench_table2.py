"""Table 2: the ten operators exclusively serving the most NSEC3 domains.

Paper values (of 15.5 M NSEC3-enabled domains):

    Squarespace 39.4 % @ 1/8; one.com 9.5 % @ 5/5,5/4,1/2,1/4;
    OVHcloud 8.4 % @ 8/8; Wix 5.0 % @ 1/8; TransIP 4.2 % @ 0/8,100/8;
    Loopia 3.6 % @ 1/1; domainname.shop 2.7 % @ 0/0; TimeWeb 2.1 % @ 3/0;
    Hostnet 1.5 % @ 1/4,0/0; Hostpoint 1.3 % @ 1/40.
"""

from repro.analysis.tables import OperatorTableAccumulator, format_operator_table

from benchmarks.conftest import fold

PAPER_SHARES = {
    "squarespacedns.com": 39.4,
    "onecomdns.net": 9.5,
    "ovhclouddns.net": 8.4,
    "wixdns.net": 5.0,
    "transipdns.net": 4.2,
    "loopiadns.se": 3.6,
    "domainnameshopdns.no": 2.7,
    "timewebdns.ru": 2.1,
    "hostnetdns.nl": 1.5,
    "hostpointdns.ch": 1.3,
}


def test_table2(benchmark, domain_scan):
    results = domain_scan["results"]
    rows = benchmark(fold, OperatorTableAccumulator, results).rows()

    print("\n=== Table 2: top authoritative operators (measured) ===")
    print(format_operator_table(rows))
    print("\npaper-vs-measured share (%):")
    measured = {row.operator: row.share_pct for row in rows}
    for operator, paper_pct in PAPER_SHARES.items():
        print(f"  {operator:24s} paper={paper_pct:5.1f}  measured={measured.get(operator, 0.0):5.1f}")

    # Shape assertions: the same leader, top-heavy distribution.
    assert rows[0].operator == "squarespacedns.com"
    assert rows[0].share_pct > 25.0
    top10 = {row.operator for row in rows}
    assert len(top10 & set(PAPER_SHARES)) >= 8
