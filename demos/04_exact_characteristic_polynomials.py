"""
Exact characteristic polynomials of small tensors
=================================================

The characteristic polynomial of an order-r tensor on n vertices is the
resultant of its eigenvalue equations -- a single monic polynomial of
degree n * (r-1)^(n-1) whose roots are exactly the eigenvalues.  This
package computes it exactly for n <= 3 and r in {2, 3, 4, 5}.  After the
entries' denominators are cleared, lambda sits only on the diagonal of one
integer Sylvester or Macaulay matrix, so the polynomial is the
characteristic polynomial of that matrix (for n = 3, a quotient of two).
It is computed modulo word-size primes and lifted by the Chinese remainder
theorem; no evaluation nodes are used.
"""

from itertools import permutations

from hypersym import (
    CubicalTensor,
    Hypergraph,
    UniPoly,
    adjacency_tensor,
    charpoly_tensor,
    fixture,
    is_spectrum_symmetric_poly,
    isolated_vertex_multiplicity_check,
    spectral_radius_power,
    verify_component_product,
)

# n = 1 is the base case: the polynomial of a loop of weight c is x - c.
loop7 = CubicalTensor(3, 1, [((1, 1, 1), 7)])
print("loop of weight 7:", charpoly_tensor(loop7))
assert charpoly_tensor(loop7) == UniPoly([-7, 1])


def mixed_two_vertex(r):
    """All order-r tuples over {1, 2} using both vertices, weight 1."""
    items = []
    for ones in range(1, r):
        base = (1,) * ones + (2,) * (r - ones)
        items += [(p, 1) for p in set(permutations(base))]
    return CubicalTensor(r, 2, items)


# Two vertices, order 3: degree 2 * 2^1 = 4, and the polynomial factors
# as (x - 3)(x + 1)^3.  The eigenvalue 3 matches the power iteration.
t23 = mixed_two_vertex(3)
p23 = charpoly_tensor(t23)
print("mixed n=2 r=3:", p23)
assert p23 == UniPoly([-3, 1]) * UniPoly([1, 1]) ** 3
rho = spectral_radius_power(t23).lam.real
print("power-iteration rho:", round(rho, 9))
assert abs(rho - 3.0) <= 1e-9

# Order 4 on two vertices: (x - 7)(x + 1)^3 (x + 2)^2, degree 6.
# The spectrum {7, -1, -1, -1, -2, -2} is visibly NOT symmetric, and
# indeed this tensor has no odd coloring.
t24 = mixed_two_vertex(4)
p24 = charpoly_tensor(t24)
print("mixed n=2 r=4:", p24)
assert p24 == UniPoly([-7, 1]) * UniPoly([1, 1]) ** 3 * UniPoly([2, 1]) ** 2
print("spectrum symmetric:", is_spectrum_symmetric_poly(p24))

# A single 3-edge on three vertices: x^3 (x^3 - 8)^3.  The nonzero
# eigenvalues are the cube roots of 8 (each three times over), so the
# spectral radius is 2 = (r-1)!.
edge3 = adjacency_tensor(Hypergraph(3, 3, [(1, 2, 3)]))
p_edge = charpoly_tensor(edge3)
print("single 3-edge:", p_edge)
assert p_edge == UniPoly([0, 0, 0, 1]) * UniPoly([-8, 0, 0, 1]) ** 3
assert abs(max(abs(z) for z in p_edge.roots()) - 2.0) <= 1e-9

# Disconnected tensors factor: vertex 1 carries a loop of weight 2 and
# vertices {2, 3} carry the mixed order-3 pattern.  The full polynomial
# is (x - 2)^4 * ((x - 3)(x + 1)^3)^2 -- each component's polynomial
# raised to (r-1)^(n - n_component).
items = [((1, 1, 1), 2)]
for base in [(1, 1, 2), (1, 2, 2)]:
    items += [
        (tuple(2 if i == 1 else 3 for i in p), 1) for p in set(permutations(base))
    ]
block = CubicalTensor(3, 3, items)
report = verify_component_product(block)
print("block tensor product check:", report.equal)
for part, poly, exponent in report.factors:
    print(f"   component {part}: ({poly})^{exponent}")
assert report.equal
assert report.lhs == UniPoly([-2, 1]) ** 4 * p23**2

# Adding an isolated vertex multiplies each eigenvalue's multiplicity by
# (r-1) and introduces zeros.  Starting from a unit loop, (x - 1) becomes
# (x - 1)^2 x^2: the multiplicity-times-(r-1) accounting holds, while a
# naive (r-1)-th power of the old polynomial does not.
unit_loop = CubicalTensor(3, 1, [((1, 1, 1), 1)])
mult = isolated_vertex_multiplicity_check(unit_loop)
print("base:", mult.base, "-> actual:", mult.actual)
print("product rule matches:", mult.product_matches,
      "| plain power matches:", mult.power_matches)
assert mult.product_matches and not mult.power_matches

print("done.")
