"""Ring elements for the oracles, in the flat-row shape a ring stores its
tensor: {(g, q-exponent): nonzero int}.  Values may be signed, so sums
can cancel.  An int-mode element has only exponent 0, and the empty row
is zero.  Products are the bilinear extension of an index-keyed tensor
of flat rows, read directly, with no support table and no Coefficient.
"""

from serrespec.coefficients import format_terms
from serrespec.zring import mask_of


def basis(g, value=1, exp=0):
    """value * q^exp times the basis element g."""
    return {(g, exp): value}


def add(*elements):
    out = {}
    for x in elements:
        for key, v in x.items():
            out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def mul(tensor, x, y):
    """x * y over the tensor {(a, b): flat row of b_a b_b}."""
    out = {}
    for (a, e), u in x.items():
        for (b, f), v in y.items():
            for (g, h), w in tensor.get((a, b), {}).items():
                key = g, e + f + h
                out[key] = out.get(key, 0) + u * v * w
    return {key: v for key, v in out.items() if v}


def support(x):
    """The mask of the basis elements with a nonzero coefficient."""
    return mask_of(g for g, _ in x)


def text(labels, x):
    """The element as violation text writes it: per basis element in
    order, its label alone for the coefficient 1, else '(c)*label'."""
    parts = []
    for g in sorted({g for g, _ in x}):
        terms = sorted((e, v) for (h, e), v in x.items() if h == g)
        parts.append(labels[g] if terms == [(0, 1)]
                     else f"({format_terms(terms)})*{labels[g]}")
    return " + ".join(parts) or "0"
