"""Ring families with closed-form lattices, spectra and topologies."""

from serrespec import INT, build_ring, enumerate_serre_ideals, quotient_ring


def upper_triangular(k, blocks=False):
    """Upper-triangular k x k matrix units: e_ij e_jl = e_il, i <= j <= l.
    With blocks, e_ij is an arrow j -> i over objects 1..k."""
    labels = [f"e{i}_{j}" for i in range(1, k + 1) for j in range(i, k + 1)]
    tensor = {(f"e{i}_{j}", f"e{j}_{l}"): {f"e{i}_{l}": 1}
              for i in range(1, k + 1) for j in range(i, k + 1)
              for l in range(j, k + 1)}
    units = [f"e{i}_{i}" for i in range(1, k + 1)]
    if not blocks:
        return build_ring(labels, tensor, INT, units=units, name=f"tri-{k}")
    arrows = {f"e{i}_{j}": (str(j), str(i))
              for i in range(1, k + 1) for j in range(i, k + 1)}
    return build_ring(labels, tensor, INT, arrows, units,
                      name=f"tri-block-{k}")


def diagonal(k, blocks=False):
    """k orthogonal idempotents summing to the identity.  With blocks,
    d_i is the unit of object i."""
    labels = [f"d{i}" for i in range(1, k + 1)]
    tensor = {(lab, lab): {lab: 1} for lab in labels}
    if not blocks:
        return build_ring(labels, tensor, INT, units=labels, name=f"diag-{k}")
    loops = {f"d{i}": (str(i), str(i)) for i in range(1, k + 1)}
    return build_ring(labels, tensor, INT, loops, labels,
                      name=f"diag-block-{k}")


def matrix_corner(k, blocks=True):
    """Two objects with no arrows between them: object 1 carries the
    unitization of the k x k matrix units (basis one and e_ij, with
    e_ij e_jl = e_il), whose zero ideal is prime and, for k >= 2, not
    completely prime; object 2 carries a single unit u.  Without blocks,
    the same table as a plain ring."""
    cells = [(f"e{i}_{j}", i, j) for i in range(1, k + 1)
             for j in range(1, k + 1)]
    labels = ["one"] + [lab for lab, _, _ in cells] + ["u"]
    tensor = {("one", lab): {lab: 1} for lab in labels[:-1]}
    tensor.update({(lab, "one"): {lab: 1} for lab in labels[:-1]})
    tensor.update({(a, b): {f"e{i}_{l}": 1} for a, i, j in cells
                   for b, jj, l in cells if j == jj})
    tensor[("u", "u")] = {"u": 1}
    if not blocks:
        return build_ring(labels, tensor, INT, units=["one", "u"],
                          name=f"matrix-sum-{k}")
    objects = dict.fromkeys(labels[:-1], ("1", "1"))
    objects["u"] = ("2", "2")
    return build_ring(labels, tensor, INT, objects, ["one", "u"],
                      name=f"matrix-corner-{k}")


def proper_quotients(rings):
    """The quotient of each ring by each of its nonzero proper two-sided
    ideal subsets."""
    return [quotient_ring(ring, ideal) for ring in rings
            for ideal in enumerate_serre_ideals(ring)
            if 0 != ideal != ring.full_mask]


def incidence(closures):
    """The incidence ring of a preorder given by its closure masks: a
    basis element e_g_h for each h in closures[g], with
    e_g_h e_h_k = e_g_k, and the e_g_g for units.  tri-k is the incidence
    ring of a chain of k points, diag-k that of k incomparable ones."""
    n = len(closures)
    pairs = [(g, h) for g in range(n) for h in range(n)
             if closures[g] >> h & 1]
    tensor = {(f"e{g}_{h}", f"e{h}_{k}"): {f"e{g}_{k}": 1}
              for g, h in pairs for k in range(n) if closures[h] >> k & 1}
    return build_ring([f"e{g}_{h}" for g, h in pairs], tensor, INT,
                      units=[f"e{g}_{g}" for g in range(n)],
                      name=f"incidence-{n}")
