"""Circumcenters of point sets and the circumcenter mapping of reflections.

Run with:  python demos/02_circumcenters.py
"""

import numpy as np

from circumsolve import (
    LinearSubspace,
    circumcenter_map,
    circumcenter_oracle,
    circumcenter_points,
    reflection_set,
)

# ---------------------------------------------------------------------------
# The circumcenter of a finite set is the unique point of its affine hull
# equidistant from all points, when such a point exists.
# ---------------------------------------------------------------------------
triangle = [(0, 0), (2, 0), (0, 2)]
res = circumcenter_points(triangle)
print("circumcenter of a right triangle:", res.value, "radius:", res.radius)

collinear = [(0, 0), (1, 0), (2, 0)]
res = circumcenter_points(collinear)
print("three collinear points have no circumcenter:", res.value)

# A second, independent computation solves the equidistance equations by
# least squares; the two agree to high accuracy on random sets.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    pts = rng.standard_normal((rng.integers(2, 6), 5))
    a = circumcenter_points(pts)
    b = circumcenter_oracle(pts)
    if a.value is not None:
        worst = max(worst, float(np.linalg.norm(a.value - b.value)))
print(f"largest disagreement between the two routes on 200 random sets: {worst:.2e}")

# A nearly collinear triangle has a far-away centre.  The solve works on the
# triangular factor of the QR that picks the rank, so its error relative to
# the centre grows as eps / sin of the flat angle, not eps / sin^2 as with
# the Gram matrix.
for h in (1e-6, 1e-8):
    flat = [(0, 0, 0), (1, 0, 0), (2, h, 0)]
    exact = np.array([0.5, (2 + h * h) / (2 * h), 0.0])
    print(f"h = {h:.0e}: exact centre (0.5, {exact[1]:.10g}), eps / sin = {np.finfo(float).eps * 2 / h:.1e}")
    for name, route in (("points", circumcenter_points), ("oracle", circumcenter_oracle)):
        c = route(flat).value
        error = float(np.linalg.norm(c - exact) / np.linalg.norm(exact))
        print(f"    {name}: centre ({c[0]:.10g}, {c[1]:.10g}), relative error {error:.1e}")

# ---------------------------------------------------------------------------
# Reflecting a point through two lines and taking the circumcenter of all
# the images pulls the point toward the intersection in one step: that is
# the circumcenter mapping the solvers iterate.
# ---------------------------------------------------------------------------
xaxis = LinearSubspace.span([(1, 0)]).as_affine()
diagonal = LinearSubspace.span([(1, 1)]).as_affine()
S = reflection_set("s3", [xaxis, diagonal])

x = np.array([0.0, 1.0])
print("images of", x, "under {Id, R1, R2, R2R1}:")
for p in S.points(x):
    print("   ", p)
print("their circumcenter:", circumcenter_map(S, x), "(the intersection of the lines)")
