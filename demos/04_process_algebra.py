# The vector space of strictly positive processes: scaling, sums, the zero
# process, and angles between processes measured exactly and by Monte Carlo.

import math

from procgeom import (
    Pfsa,
    angle,
    angle_mc_estimate,
    as_process,
    fdd_distance,
    inner_exact,
    inner_mc,
    process_norm,
    scale_process,
    sum_processes,
    zero_process,
)

G = as_process(
    Pfsa(
        ["0", "1"],
        ["A", "B"],
        {"A": {"0": "A", "1": "B"}, "B": {"0": "A", "1": "B"}},
        {"A": [0.8, 0.2], "B": [0.3, 0.7]},
    ),
    label="G",
)

negG = scale_process(-1.0, G)
tiny = scale_process(0.1, G)
zero = zero_process(G.alphabet)

# group laws, verified through finite-dimensional distributions
print("sum(G, zero) == G:        fdd gap =", fdd_distance(sum_processes(G, zero), G, 5))
print("sum(G, -G) == zero:       fdd gap =", fdd_distance(sum_processes(G, negG), zero, 5))

# the inner product and the angles it induces
print("\n<G, G>   =", inner_exact(G, G).value)
print("<G, -G>  =", inner_exact(G, negG).value)
print("|G|      =", process_norm(G))
print("|0.1 G|  =", process_norm(tiny), " (norms scale linearly)")

print("\nangle(G, -G)    =", angle(G, negG), " (pi =", math.pi, ")")
print("angle(G, 0.1G)  =", angle(G, tiny), " (scaling does not rotate)")

# orthogonal processes by Gram-Schmidt: take from M its component along G,
# R = M + (-c) G with c = <M, G> / <G, G>; R is orthogonal to G
M = as_process(
    Pfsa(
        ["0", "1"],
        ["a", "b"],
        {"a": {"0": "a", "1": "b"}, "b": {"0": "a", "1": "b"}},
        {"a": [0.9, 0.1], "b": [0.2, 0.8]},
    ),
    label="M",
)
R = sum_processes(M, scale_process(-inner_exact(M, G).value / inner_exact(G, G).value, G))
print("\nangle(M, G)     =", angle(M, G))
print("<R, G>          =", inner_exact(R, G).value)
print("angle(R, G)     =", angle(R, G), " (pi/2 =", math.pi / 2, ")")

# Monte Carlo route: drive both machines with the same uniform random
# symbols after a joint synchronizing string, and average
est = inner_mc(G, G, walk_length=20_000, repeats=10, seed=1)
print("\nMC <G, G> =", est.value, "+-", est.std_error, f"  (exact {inner_exact(G, G).value})")

amc = angle_mc_estimate(G, negG, walk_length=20_000, repeats=10, seed=2)
print("MC angle(G, -G) =", amc.angle, " cos =", amc.cos, "+-", amc.cos_std_error)
