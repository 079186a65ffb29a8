"""Ring families with closed-form lattices, spectra and topologies."""

from serrespec import INT, build_ring


def upper_triangular(k):
    """Upper-triangular k x k matrix units: e_ij e_jl = e_il, i <= j <= l."""
    labels = [f"e{i}_{j}" for i in range(1, k + 1) for j in range(i, k + 1)]
    tensor = {(f"e{i}_{j}", f"e{j}_{l}"): {f"e{i}_{l}": 1}
              for i in range(1, k + 1) for j in range(i, k + 1)
              for l in range(j, k + 1)}
    units = [f"e{i}_{i}" for i in range(1, k + 1)]
    return build_ring(labels, tensor, INT, units=units, name=f"tri-{k}")


def diagonal(k):
    """k orthogonal idempotents summing to the identity."""
    labels = [f"d{i}" for i in range(1, k + 1)]
    tensor = {(lab, lab): {lab: 1} for lab in labels}
    return build_ring(labels, tensor, INT, units=labels, name=f"diag-{k}")
