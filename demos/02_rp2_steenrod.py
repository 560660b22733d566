"""Steenrod squares on the projective plane.

On RP^2 with F2 coefficients the cohomology is F2[s]/(s^3) and
Sq^1(s) = s^2 is nonzero: the square of the degree-1 generator
generates H^2.  This is invisible to plain Betti numbers (a wedge
S^1 v S^2 has the same ones) and is exactly what the image barcode
of Sq^1 detects.
"""

from steenrips import (
    Operation,
    cohomology_basis,
    cup_i,
    image_barcode,
    is_coboundary,
    kernel_barcode,
    rp2_complex,
    sq,
)

K = rp2_complex()
print(f"minimal triangulation: {K.n_simplices(0)} vertices, "
      f"{K.n_simplices(1)} edges, {K.n_simplices(2)} triangles")
print(f"Euler characteristic: {K.euler_characteristic()}")
print("F2 Betti numbers:", [len(cohomology_basis(K, p)) for p in range(3)])

sigma = cohomology_basis(K, 1).cocycles[0]
print("\ndegree-1 generator supported on edges:", sigma.simplices())

square = cup_i(sigma, sigma, 0)
print("cup square is a coboundary:", is_coboundary(square))
print("Sq^1(sigma) equals the cup square:", is_coboundary(sq(1, sigma) + square))

op = Operation.sq(1, 1)
print("\nimg_Sq1 barcode :", [(b.degree, b.birth, b.death)
                              for b in image_barcode(K, op)])
print("ker_Sq1 barcode :", [(b.degree, b.birth, b.death)
                            for b in kernel_barcode(K, op)])
print("(one everlasting degree-2 image bar: Sq^1 is injective on H^1(RP^2))")
