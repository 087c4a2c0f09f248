"""Biforms as parametrized rational space curves.

A bidegree-(a,b) form is a family of b points on a line, parametrized by a
second line; equivalently a degree-a rational curve in the projective space
of degree-b binary forms.  This script extracts the component forms of that
curve, measures its linear span and hyperplane degree, and computes branch
forms of the projection to the parameter line.

Run:  python demos/03_space_curves_and_branch_forms.py
"""

from random import Random

from biforms import (
    BiForm,
    branch_form,
    hyperplane_degree,
    image_subspace,
    is_squarefree,
    phi_components,
    span_dim,
    top_minors,
)
from biforms.sampling import random_biform

rng = Random("space-curves")

# --- components of the curve map ---------------------------------------------
C = BiForm.parse("X1*Y2^2 + Y1*X2^2")
print("components (c_0, c_1, c_2) of", C, "->", tuple(str(c) for c in phi_components(C)))

# --- span, degree, and Pluecker coordinates ----------------------------------
for (a, b) in [(1, 4), (2, 3), (2, 5), (3, 4)]:
    f = random_biform(rng, a, b)
    w = image_subspace(f)
    plucker = top_minors(w.basis.transpose())
    print(f"\nrandom bidegree ({a},{b}):")
    print(f"  span dimension {span_dim(f)} (expected {a})")
    print(f"  hyperplane degree {hyperplane_degree(f, seed=0)} (expected {a})")
    print(f"  image is a {w.dim}-dim subspace of Q^{b + 1};"
          f" {len(plucker)} Pluecker coordinates, first few {', '.join(map(str, plucker[:4]))}")

# --- branch forms -------------------------------------------------------------
print("\nbranch forms of the projection to the parameter line:")
for (a, b) in [(1, 4), (2, 3), (2, 4)]:
    f = random_biform(rng, a, b)
    bf = branch_form(f)
    print(f"  bidegree ({a},{b}): degree {bf.degree} = 2a(b-1),"
          f" squarefree {is_squarefree(bf)}")

degenerate = branch_form(BiForm.parse("X1^2*X2^4"))
print("a decomposable form degenerates (resultant vanishes identically):",
      degenerate.is_zero())
