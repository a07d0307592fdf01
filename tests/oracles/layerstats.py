"""The reference full scan behind :class:`repro.metrics.layerstats.LayerStatsSampler`."""

from __future__ import annotations

from typing import Dict

from repro.overlay.topology import Overlay


def scan_layer_stats(overlay: Overlay, now: float) -> Dict[str, float]:
    """The reference full scan: one pass over every peer (O(n)).

    The sampler reads the same values in O(1) from the overlay's
    aggregate plane; equivalence tests compare the two.
    """
    sup_age = sup_cap = sup_lnn = 0.0
    leaf_age = leaf_cap = 0.0
    n_sup = 0
    n_leaf = 0
    for peer in overlay.peers():
        age = now - peer.join_time
        if peer.is_super:
            n_sup += 1
            sup_age += age
            sup_cap += peer.capacity
            sup_lnn += len(peer.leaf_neighbors)
        else:
            n_leaf += 1
            leaf_age += age
            leaf_cap += peer.capacity
    return {
        "n": n_sup + n_leaf,
        "n_super": n_sup,
        "n_leaf": n_leaf,
        "ratio": n_leaf / n_sup if n_sup else float("inf"),
        "super_mean_age": sup_age / n_sup if n_sup else 0.0,
        "leaf_mean_age": leaf_age / n_leaf if n_leaf else 0.0,
        "super_mean_capacity": sup_cap / n_sup if n_sup else 0.0,
        "leaf_mean_capacity": leaf_cap / n_leaf if n_leaf else 0.0,
        "super_mean_lnn": sup_lnn / n_sup if n_sup else 0.0,
    }
