"""Counting spanning trees exactly, and checking a count another way.

The determinant route (strike one row and column of the Laplacian, run
fraction-free elimination) is the workhorse.  The deletion-contraction
recurrence tau(G) = tau(G - e) + tau(G / e) is an independent check:
every spanning tree either avoids the edge e or contains it.  The test
suite also counts small graphs by brute force over edge subsets.
"""

from spantree import (
    Graph,
    complete,
    cycle,
    format_edge_list,
    parse_edge_list,
    tau,
)

print("== the classics ==")
for n in range(3, 9):
    print(f"tau(K_{n}) = {tau(complete(n)):>6}   (Cayley says {n ** (n - 2)})")
print(f"tau(C_12) = {tau(cycle(12))}  (one tree per removable edge)")

print()
print("== multigraphs count parallel copies separately ==")
doubled = Graph(2, ((0, 1, 2),))
print(f"two vertices, doubled edge: tau = {tau(doubled)}")
theta = Graph(4, ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1)))
print(f"theta graph (paths 1,2,2):  tau = {tau(theta)}")

print()
print("== deletion-contraction agrees ==")
g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)))
# for the edge e = 01: G - e drops it; G / e merges vertex 1 into 0 and
# shifts 2, 3, 4 down by one, so the edges 02 and 12 both become 01, a
# doubled edge that the third entry of a triple records
g_minus_e = Graph(5, ((0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)))
g_over_e = Graph(4, ((0, 1, 2), (0, 2), (0, 3), (1, 2), (2, 3)))
print(f"determinant:          {tau(g)}")
print(f"delete + contract:    {tau(g_minus_e)} + {tau(g_over_e)} = "
      f"{tau(g_minus_e) + tau(g_over_e)}")

print()
print("== graphs travel as plain text ==")
text = format_edge_list(g)
print(text, end="")
assert parse_edge_list(text) == g
print("(round-trips bit-exactly)")
