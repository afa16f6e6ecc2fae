"""The drop-in map: from which drop-in stops transit can carry each customer's package.

A drop-in stop can serve a customer when some trip visits it before one of
the customer's candidate drop-out stops on the same line. Only the
truck-first pipeline, which routes trucks before any trip is chosen, and the
checks that transit reaches every customer read the map; other stages take
the same stops from their transit domains (``model_full.transit_pairs``).
"""

from __future__ import annotations

from .instance import Instance, InstanceError


class UnreachableCustomerError(InstanceError):
    """A customer has no drop-in stop from which transit can reach them."""


def derive_compatibility(instance: Instance) -> dict[str, frozenset[str]]:
    """Per customer, the drop-in stops that precede its last candidate drop-out stop on
    a line some trip runs; raises ``UnreachableCustomerError`` for a customer with none."""
    lines_with_trips = {trip.line for trip in instance.trips}
    drop_ins: dict[str, frozenset[str]] = {}
    for cust in instance.customers:
        usable: set[str] = set()
        for line in instance.lines:
            if line.id not in lines_with_trips:
                continue
            order = line.ordered_stops
            candidates = [pos for pos, sid in enumerate(order) if sid in cust.dropout_candidates]
            if candidates:
                usable.update(sid for sid in order[:candidates[-1]]
                              if instance.stop(sid).is_drop_in)
        if not usable:
            raise UnreachableCustomerError(
                f"customer {cust.id} unreachable by transit: no drop-in stop precedes "
                f"any of its candidate drop-out stops on a served line")
        drop_ins[cust.id] = frozenset(usable)
    return drop_ins
