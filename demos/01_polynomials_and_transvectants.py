"""Exact polynomials and transvectants: a quick tour.

Run:  python demos/01_polynomials_and_transvectants.py
"""

from biforms import (
    BiForm,
    BinaryForm,
    RING_XY,
    apolar_diffop,
    bitransvectant,
    cg_components,
    parse_form,
    tensor_product,
    transvectant,
)

# --- parsing and exact arithmetic ------------------------------------------
p = parse_form("3/7*X^2*Y - X*Y^2", RING_XY)
print("parsed:", p)
print("squared:", p * p)
print("d/dY twice of X^2*Y^6:", parse_form("X^2*Y^6", RING_XY).diff("Y", 2))

# --- transvectants of binary forms -----------------------------------------
f = BinaryForm.parse("X^2*Y^6")
g = BinaryForm.parse("X^4")
print("\nT_2(X^2*Y^6, X^4) =", transvectant(f, g, 2))
product = parse_form(str(f), RING_XY) * parse_form(str(g), RING_XY)
print("T_0 is the plain product:", transvectant(f, g, 0) == BinaryForm.parse(str(product)))
print("T_1(X, Y) =", transvectant(BinaryForm.parse("X"), BinaryForm.parse("Y"), 1))

# the extreme transvectant doubles as a differential operator
q = BinaryForm.parse("Y")
print("apolar route:", apolar_diffop(BinaryForm.parse("X^2"), q),
      "| Cayley route:", transvectant(BinaryForm.parse("X^2"), q, 1))

# --- Clebsch-Gordan bookkeeping ---------------------------------------------
print("\ntensor of degrees (6,2) splits into degrees", cg_components(6, 2))
dims = [k + 1 for k in cg_components(6, 2)]
print("dimensions", dims, "sum to", sum(dims), "= 7*3")

# --- bi-transvectants factor on decomposables -------------------------------
p1, p2 = BinaryForm.parse("X + Y"), BinaryForm.parse("X^2 - Y^2")
q1, q2 = BinaryForm.parse("X - Y"), BinaryForm.parse("X*Y")
lhs = bitransvectant(tensor_product(p1, p2), tensor_product(q1, q2), 1, 1)
rhs = tensor_product(transvectant(p1, q1, 1), transvectant(p2, q2, 1))
print("\nfactorization on decomposables holds exactly:", lhs == rhs)

h = BiForm.parse("X1*X2^2*Y2^6 + Y1*X2^6*Y2^2")
hp = BiForm.parse("X1*Y2^4 + Y1*X2^4")
print("the reference (1,8) x (1,4) pairing vanishes:", bitransvectant(h, hp, 1, 2))
