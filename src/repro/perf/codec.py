"""Deterministic, self-describing codec for persistent-store payloads.

The on-disk result store (:mod:`repro.perf.store`) must round-trip every
value the sweep cache holds — busy-period moment tuples, phase-type
distributions, full :class:`QbdSolution` objects, service answers —
**bit-identically**, across processes and Python sessions, without
``pickle`` (whose byte stream is neither stable across versions nor safe
to interpret after on-disk corruption).

Format
------
``encode_value`` produces ``<json tree>\\n<blob section>``:

* The first line is a compact JSON *tree* in which every node is tagged
  (``{"t": "float", "v": "0000000000000840"}``); floats are stored as
  the hex of their little-endian IEEE-754 bytes so the decoded value is
  the bit-identical double — including signed zeros, infinities, and
  NaNs down to the payload bits (which ``float.hex()`` would
  canonicalize away).
* Bulk binary leaves (``bytes``, numpy arrays) live in the blob section
  and are referenced by ``(offset, length)``; arrays additionally carry
  their exact dtype string and shape, so the decoded array is
  byte-identical C-contiguous data.
* Domain objects (distributions, :class:`SolverDiagnostics`,
  :class:`QbdSolution`, ...) are encoded through a **closed registry** of
  ``(encode, decode)`` pairs keyed by a stable tag.  A type outside the
  registry raises :class:`~repro.robustness.SerializationError` — the
  store then simply does not persist that value, rather than persisting
  something it could not faithfully restore.

Encoding the same value always produces the same bytes (dict order is
preserved, no timestamps, no addresses), which is what lets the store
derive content digests from encoded cache keys.

Import note: this module must stay import-light — numpy and the domain
classes are imported lazily on first use, because :mod:`repro.perf` is
imported *by* the distribution and solver layers.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, Callable, Optional

from ..robustness import SerializationError

__all__ = [
    "CODEC_VERSION",
    "decode_value",
    "encode_value",
    "key_digest",
    "register_codec",
]

#: Bump when the encoding itself changes incompatibly; folded into the
#: store's entry headers so old payloads are rejected instead of
#: misread.
CODEC_VERSION = 1

#: type -> (tag, to_state) and tag -> from_state, populated lazily by
#: :func:`_ensure_domain_registry` plus any :func:`register_codec` calls.
_ENCODERS: "dict[type, tuple[str, Callable[[Any], Any]]]" = {}
_DECODERS: "dict[str, Callable[[Any], Any]]" = {}
_DOMAIN_REGISTERED = False


def register_codec(
    tag: str,
    cls: type,
    to_state: Callable[[Any], Any],
    from_state: Callable[[Any], Any],
) -> None:
    """Register a domain class for store serialization.

    ``to_state`` maps an instance to a tree of already-encodable values
    (numbers, strings, tuples, dicts, numpy arrays, other registered
    objects); ``from_state`` inverts it.  Tags are part of the on-disk
    format — never reuse one for a different layout.
    """
    if tag in _DECODERS and _DECODERS[tag] is not from_state:
        raise ValueError(f"codec tag {tag!r} is already registered")
    _ENCODERS[cls] = (tag, to_state)
    _DECODERS[tag] = from_state


def _ensure_domain_registry() -> None:
    """Register the domain classes the five cache namespaces produce."""
    global _DOMAIN_REGISTERED
    if _DOMAIN_REGISTERED:
        return
    from ..distributions import Coxian, Erlang, Exponential, Hyperexponential
    from ..distributions.phase_type import PhaseType
    from ..markov.qbd import QbdSolution, restore_solution
    from ..robustness import SolverDiagnostics
    from ..robustness.retry import RungAttempt

    register_codec(
        "exponential",
        Exponential,
        lambda d: {"rate": d.rate},
        lambda s: Exponential(s["rate"]),
    )
    register_codec(
        "erlang",
        Erlang,
        lambda d: {"shape": d.shape, "rate": d.rate},
        lambda s: Erlang(s["shape"], s["rate"]),
    )
    register_codec(
        "coxian",
        Coxian,
        lambda d: {"rates": tuple(d.rates), "continue_probs": tuple(d.continue_probs)},
        lambda s: Coxian(s["rates"], s["continue_probs"]),
    )
    register_codec(
        "hyperexponential",
        Hyperexponential,
        lambda d: {"probs": tuple(d.probs), "rates": tuple(d.rates)},
        lambda s: Hyperexponential(s["probs"], s["rates"]),
    )
    register_codec(
        "phase-type",
        PhaseType,
        lambda d: {"alpha": d.alpha, "T": d.T},
        lambda s: PhaseType(s["alpha"], s["T"]),
    )
    register_codec(
        "rung-attempt",
        RungAttempt,
        lambda a: {
            "name": a.name,
            "accepted": a.accepted,
            "residual": a.residual,
            "iterations": a.iterations,
            "error": a.error,
        },
        lambda s: RungAttempt(
            name=s["name"],
            accepted=s["accepted"],
            residual=s["residual"],
            iterations=s["iterations"],
            error=s["error"],
        ),
    )
    register_codec(
        "solver-diagnostics",
        SolverDiagnostics,
        lambda d: {
            "method": d.method,
            "rungs": tuple(d.rungs),
            "residual": d.residual,
            "spectral_radius": d.spectral_radius,
            "condition_i_minus_r": d.condition_i_minus_r,
            "boundary_residual": d.boundary_residual,
            "iterations": d.iterations,
            "wall_time": d.wall_time,
            "cache_hit": d.cache_hit,
            "degraded": d.degraded,
            "notes": tuple(d.notes),
            "condition_estimate": d.condition_estimate,
            "error_bound": d.error_bound,
            "trust": d.trust,
            "escalated": d.escalated,
            "error_bound_before_escalation": d.error_bound_before_escalation,
        },
        lambda s: SolverDiagnostics(
            method=s["method"],
            rungs=tuple(s["rungs"]),
            residual=s["residual"],
            spectral_radius=s["spectral_radius"],
            condition_i_minus_r=s["condition_i_minus_r"],
            boundary_residual=s["boundary_residual"],
            iterations=s["iterations"],
            wall_time=s["wall_time"],
            cache_hit=s["cache_hit"],
            degraded=s["degraded"],
            notes=tuple(s["notes"]),
            # .get(): payloads persisted before the trust layer lack these.
            condition_estimate=s.get("condition_estimate"),
            error_bound=s.get("error_bound"),
            trust=s.get("trust"),
            escalated=s.get("escalated", False),
            error_bound_before_escalation=s.get("error_bound_before_escalation"),
        ),
    )
    # restore_solution re-derives (I - R)^{-1} and cond(I - R) from the
    # stored R and re-runs the sp(R) and cond gates (sp(R) keeps its
    # historical payload key): deterministic arithmetic on bit-identical
    # inputs, so the restored object matches the original attribute-wise.
    register_codec(
        "qbd-solution",
        QbdSolution,
        lambda q: {
            "boundary_pi": tuple(q.boundary_pi),
            "pi_repeat": q.pi_repeat,
            "r_matrix": q.r_matrix,
            "first_repeating_level": q.first_repeating_level,
            "diagnostics": q.diagnostics,
            "spectral_radius_hint": q.tail_spectral_radius,
        },
        lambda s: restore_solution(
            list(s["boundary_pi"]),
            s["pi_repeat"],
            s["r_matrix"],
            s["first_repeating_level"],
            s["diagnostics"],
            s["spectral_radius_hint"],
        ),
    )
    _DOMAIN_REGISTERED = True


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #


def _encode_node(value: Any, blobs: bytearray) -> Any:
    import numpy as np

    if value is None:
        return {"t": "none"}
    # np.generic before the Python primitives: np.float64 subclasses
    # float, and the round trip must give back the numpy scalar type.
    if isinstance(value, np.generic):
        raw = value.tobytes()
        offset = len(blobs)
        blobs.extend(raw)
        return {"t": "npscalar", "dtype": value.dtype.str, "o": offset, "n": len(raw)}
    # bool before int: bool is an int subclass.
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, float):
        return {"t": "float", "v": struct.pack("<d", value).hex()}
    if isinstance(value, str):
        return {"t": "str", "v": value}
    if isinstance(value, bytes):
        offset = len(blobs)
        blobs.extend(value)
        return {"t": "bytes", "o": offset, "n": len(value)}
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        raw = contiguous.tobytes()
        offset = len(blobs)
        blobs.extend(raw)
        return {
            "t": "ndarray",
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
            "o": offset,
            "n": len(raw),
        }
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [_encode_node(item, blobs) for item in value]}
    if isinstance(value, list):
        return {"t": "list", "v": [_encode_node(item, blobs) for item in value]}
    if isinstance(value, dict):
        return {
            "t": "dict",
            "v": [
                [_encode_node(k, blobs), _encode_node(v, blobs)]
                for k, v in value.items()
            ],
        }
    _ensure_domain_registry()
    entry = _ENCODERS.get(type(value))
    if entry is not None:
        tag, to_state = entry
        return {"t": "obj", "cls": tag, "v": _encode_node(to_state(value), blobs)}
    raise SerializationError(
        f"cannot serialize {type(value).__module__}.{type(value).__qualname__} "
        "for the persistent store (not in the codec registry)",
        value_type=type(value).__qualname__,
    )


def encode_value(value: Any) -> bytes:
    """Serialize ``value`` to the store's self-describing byte format."""
    blobs = bytearray()
    tree = _encode_node(value, blobs)
    header = json.dumps(
        {"codec": CODEC_VERSION, "tree": tree}, separators=(",", ":")
    ).encode("utf-8")
    return header + b"\n" + bytes(blobs)


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #


def _decode_node(node: Any, blobs: bytes) -> Any:
    if not isinstance(node, dict) or "t" not in node:
        raise SerializationError(f"malformed codec node: {node!r}")
    tag = node["t"]
    if tag == "none":
        return None
    if tag in ("bool", "int", "str"):
        return node["v"]
    if tag == "float":
        return struct.unpack("<d", bytes.fromhex(node["v"]))[0]
    if tag == "bytes":
        return _blob_slice(blobs, node)
    if tag == "ndarray":
        import numpy as np

        raw = _blob_slice(blobs, node)
        array = np.frombuffer(raw, dtype=np.dtype(node["dtype"]))
        return array.reshape(node["shape"]).copy()  # writable, owns its data
    if tag == "npscalar":
        import numpy as np

        raw = _blob_slice(blobs, node)
        return np.frombuffer(raw, dtype=np.dtype(node["dtype"]))[0]
    if tag == "tuple":
        return tuple(_decode_node(item, blobs) for item in node["v"])
    if tag == "list":
        return [_decode_node(item, blobs) for item in node["v"]]
    if tag == "dict":
        return {
            _decode_node(k, blobs): _decode_node(v, blobs) for k, v in node["v"]
        }
    if tag == "obj":
        _ensure_domain_registry()
        from_state = _DECODERS.get(node["cls"])
        if from_state is None:
            raise SerializationError(
                f"unknown codec tag {node['cls']!r} (schema drift?)"
            )
        return from_state(_decode_node(node["v"], blobs))
    raise SerializationError(f"unknown codec node type {tag!r}")


def _blob_slice(blobs: bytes, node: dict) -> bytes:
    offset, length = node["o"], node["n"]
    if offset < 0 or length < 0 or offset + length > len(blobs):
        raise SerializationError(
            f"blob reference [{offset}:{offset + length}] outside the "
            f"{len(blobs)}-byte blob section"
        )
    return blobs[offset : offset + length]


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`.

    Raises :class:`~repro.robustness.SerializationError` on any malformed
    or version-mismatched payload; the store wraps that in a
    :class:`~repro.robustness.StoreCorruptionError`.
    """
    newline = data.find(b"\n")
    if newline < 0:
        raise SerializationError("payload has no tree/blob separator")
    try:
        envelope = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SerializationError(f"payload tree is not valid JSON: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("codec") != CODEC_VERSION:
        raise SerializationError(
            "payload codec version mismatch",
            expected=CODEC_VERSION,
            observed=envelope.get("codec") if isinstance(envelope, dict) else None,
        )
    try:
        return _decode_node(envelope["tree"], data[newline + 1 :])
    except SerializationError:
        raise
    except Exception as exc:  # reconstruction of a domain object blew up
        raise SerializationError(
            f"payload decoded but reconstruction failed: {exc}"
        ) from exc


# --------------------------------------------------------------------------- #
# Key digests
# --------------------------------------------------------------------------- #


def key_digest(namespace: str, key: Any, extra: "Optional[str]" = None) -> str:
    """Stable content digest of a cache key (hex sha256).

    The digest covers the namespace, the full key structure (the PR 3
    bit-transparent cache keys: exact float tuples, raw matrix bytes) and
    an optional ``extra`` discriminator — the store passes the solver
    schema version through it, so a solver bump orphans old entries
    instead of replaying stale numerics.
    """
    hasher = hashlib.sha256()
    hasher.update(namespace.encode("utf-8"))
    hasher.update(b"\x00")
    if extra:
        hasher.update(extra.encode("utf-8"))
        hasher.update(b"\x00")
    hasher.update(encode_value(key))
    return hasher.hexdigest()
