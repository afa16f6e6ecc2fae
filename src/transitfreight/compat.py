"""Derived compatibility sets: which stops, trips, and vehicles can serve whom.

A drop-in stop can serve a customer when some trip visits it before one of
the customer's candidate drop-out stops on the same line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, InstanceError


class UnreachableCustomerError(InstanceError):
    """A customer has no drop-in stop from which transit can reach them."""


@dataclass(frozen=True)
class Compatibility:
    s_in_of_customer: dict[str, frozenset[str]]       # customer -> usable drop-in stops
    customers_of_dropout: dict[str, frozenset[str]]   # drop-out stop -> customers


def derive_compatibility(instance: Instance) -> Compatibility:
    # drop-in stops reachable per line position, keyed by line
    line_order = {ln.id: ln.ordered_stops for ln in instance.lines}
    lines_with_trips = {trip.line for trip in instance.trips}

    s_in_of_customer: dict[str, frozenset[str]] = {}
    customers_of_dropout: dict[str, set[str]] = {s.id: set() for s in instance.stops if s.is_drop_out}

    for cust in instance.customers:
        usable: set[str] = set()
        for line_id in lines_with_trips:
            order = line_order[line_id]
            candidate_positions = [
                pos for pos, sid in enumerate(order) if sid in cust.dropout_candidates
            ]
            if not candidate_positions:
                continue
            last_candidate = max(candidate_positions)
            for pos, sid in enumerate(order):
                if pos < last_candidate and instance.stop(sid).is_drop_in:
                    # a later candidate drop-out exists on this served line
                    if any(p > pos for p in candidate_positions):
                        usable.add(sid)
        if not usable:
            raise UnreachableCustomerError(
                f"customer {cust.id} unreachable by transit: no drop-in stop precedes "
                f"any of its candidate drop-out stops on a served line")
        s_in_of_customer[cust.id] = frozenset(usable)
        for sid in cust.dropout_candidates:
            customers_of_dropout[sid].add(cust.id)

    return Compatibility(
        s_in_of_customer=s_in_of_customer,
        customers_of_dropout={k: frozenset(v) for k, v in customers_of_dropout.items()},
    )
