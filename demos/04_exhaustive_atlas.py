"""Ground truth by brute force: every realizable count at desk scale.

The atlas for n collects the distinct spanning-tree counts of the
connected graphs among all 2^C(n,2) edge subsets of the complete graph.
It evaluates far fewer: every connected graph is a connected graph on one
vertex fewer plus a vertex joined to some of the others, so counting the
extensions of at least one graph per isomorphism class covers every subset.
With the atlas in hand, questions become lookups: the least vertex count
realizing a given m, whether the witness construction's counts all really
occur, and how the classical vertex-count bounds compare.
"""

from spantree import (
    alpha_exact,
    azarija_skrekovski_bound,
    exact_atlas,
    sedlacek_bound,
    verify_lower_bound,
)

print("== exact atlases ==")
atlases = {}
for n in range(1, 7):
    record = exact_atlas(n)
    atlases[n] = record
    shown = ", ".join(map(str, record.values[:10]))
    more = f", ... ({record.size} values)" if record.size > 10 else ""
    print(f"A_{n}: {{{shown}{more}}}  [{record.graphs_scanned} subsets covered]")

print()
print("== least vertex count realizing m ==")
for m in (1, 3, 9, 11, 2):
    record = alpha_exact(m, atlases)
    if record.status == "exact":
        print(f"alpha({m:>2}) = {record.alpha}")
    else:
        print(f"alpha({m:>2}) > {record.alpha - 1}   (not realizable this small; "
              f"m = 2 never shows up)")

print()
print("== classical upper bounds, checked against reality ==")
print(" m   alpha  older-bound  sharper-bound")
for m in (8, 9, 12, 15, 20, 26, 27):
    record = alpha_exact(m, atlases)
    sed = sedlacek_bound(m)
    azs = azarija_skrekovski_bound(m)
    print(f"{m:>2}   {record.alpha:>3}    {sed if sed is not None else '-':>5}"
          f"        {azs if azs is not None else '-':>5}")

print()
print("== the witness construction never invents a count ==")
for n in (4, 5, 6):
    report = verify_lower_bound(atlases[n])
    print(f"n = {n}: {report.partition_count} witness counts, all present in "
          f"A_{n} ({report.atlas_size} values): {report.ok}")
