#!/usr/bin/env python3
"""Data-cache read bandwidth: the secondary benefit of NoSQ (Figure 4).

Bypassed loads never read the data cache in the out-of-order core, and the
T-SSBF filters nearly all verification re-executions, so most bypassed
loads commit without having accessed the cache even once.  This script
measures the effect across benchmarks with very different bypassing rates.

Run:  python examples/cache_bandwidth.py
"""

from repro.api import sweep

BENCHMARKS = ["mesa.o", "mpeg2.d", "vortex", "gzip", "g721.e", "applu", "mcf"]


def main() -> None:
    print(f"{'benchmark':10s} {'bypass%':>8s} {'ooo reads':>10s} "
          f"{'backend reads':>14s} {'total rel.':>11s} {'reexec%':>8s}")
    # The default scale: 30000 instructions, the first 12000 warmup.
    swept = sweep("conventional,nosq", BENCHMARKS, scale="default")
    total_rels = []
    for benchmark in BENCHMARKS:
        baseline = swept.stats(benchmark, "conventional")
        nosq = swept.stats(benchmark, "nosq")
        base_reads = max(1, baseline.total_dcache_reads)
        rel = nosq.total_dcache_reads / base_reads
        total_rels.append(rel)
        print(
            f"{benchmark:10s} {nosq.pct_loads_bypassed:7.1f}% "
            f"{nosq.ooo_dcache_reads:10d} {nosq.backend_dcache_reads:14d} "
            f"{rel:11.3f} {100 * nosq.reexec_rate:7.2f}%"
        )
    mean_saving = 100.0 * (1 - sum(total_rels) / len(total_rels))
    print(f"\naverage data-cache read reduction: {mean_saving:.1f}% "
          f"(paper reports ~9% across all suites)")


if __name__ == "__main__":
    main()
