"""The search report as one json.dumps call, kept as the oracle of the
streamed ``search --json``.

Every record becomes a payload dict, the whole report one dict, and
``json.dumps(indent=2, sort_keys=True)`` renders it in one piece.  The
CLI writes the same bytes one record at a time.
"""

import json
from fractions import Fraction


def _rat(x):
    return None if x is None else str(Fraction(x))


def profile_payload(profile):
    if profile is None:
        return None
    return {
        "n": profile.n,
        "size": profile.size,
        "b0": profile.b0,
        "w1": _rat(profile.w1),
        "w2": _rat(profile.w2),
        "b1": profile.b1,
        "b2": profile.b2,
        "index": _rat(profile.index),
        "trivial": profile.trivial,
    }


def record_payload(rec):
    payload = {
        "ring": rec.ring_text,
        "k": rec.k,
        "point_ids": list(rec.point_ids),
        "index": _rat(rec.index),
        "n": rec.n,
        "size": rec.size,
        "b0": rec.b0,
        "classification": rec.classification,
        "weights": [_rat(w) for w in rec.weights],
        "profile": profile_payload(rec.profile),
        "srg": list(rec.srg.as_tuple()) if rec.srg is not None else None,
        "trivial": rec.srg.trivial if rec.srg is not None else None,
    }
    if rec.dual is not None:
        payload["dual"] = {
            "w1_dual": _rat(rec.dual.w1_dual),
            "w2_dual": _rat(rec.dual.w2_dual),
            "srg": list(rec.dual.srg.as_tuple()),
        }
    else:
        payload["dual"] = None
    if rec.equivalence is not None:
        cert = rec.equivalence.pds
        payload["equivalence"] = {
            "two_weight": rec.equivalence.two_weight,
            "pds": None if cert is None else {
                "group_size": cert.group_size,
                "set_size": cert.set_size,
                "lam": cert.lam,
                "mu": cert.mu,
            },
            "omega_with_zero_submodule":
                rec.equivalence.omega_with_zero_submodule,
            "complement_submodule": rec.equivalence.complement_submodule,
        }
    else:
        payload["equivalence"] = None
    return payload


def search_report(ring_text, k, n_max, index_one, records):
    """The text of ``search --json`` for these records."""
    return json.dumps({
        "ring": ring_text,
        "k": k,
        "n_max": n_max,
        "index_one": index_one,
        "records": [record_payload(rec) for rec in records],
    }, indent=2, sort_keys=True) + "\n"
