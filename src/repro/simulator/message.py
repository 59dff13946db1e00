"""Message payloads and CONGEST bit accounting.

Messages exchanged by node programs are plain Python values (ints, strings,
tuples, dicts, ...).  For CONGEST-model accounting we need an estimate of
how many bits a payload would occupy on the wire; :func:`estimate_bits`
provides a conservative, deterministic estimate that matches the usual
conventions of the CONGEST literature (an identifier or a color costs
``O(log n)`` bits, a constant tag costs ``O(1)`` bits).
"""

from __future__ import annotations

import marshal
from typing import Any, Dict, Iterable

#: Bits charged for a structural separator (tuple slot, dict entry, ...).
_STRUCTURE_OVERHEAD_BITS = 2

#: Memo of container payload sizes, keyed by ``marshal`` serialization.
#: Algorithms send the same few tag tuples over and over (every JOIN, every
#: slice-tagged template message); caching by serialized bytes makes the
#: default (non-``fast``) accounting pay the structural walk once per
#: distinct payload.  ``marshal`` keys distinguish ``1``/``1.0``/``True``
#: (whose bit costs differ), unlike the values themselves under ``==``.
_BITS_CACHE: Dict[bytes, int] = {}

#: Cache entries are bounded so adversarial or high-entropy payload streams
#: cannot grow the memo without limit; on overflow the memo resets.
_BITS_CACHE_MAX = 65536

#: Bits charged per character of a string tag.  Tags in this repository are
#: short constant strings drawn from a per-algorithm alphabet, so charging a
#: byte per character keeps them O(1)-bit in spirit while staying honest
#: about longer payloads.
_BITS_PER_CHAR = 8


def _int_bits(value: int) -> int:
    """Bits to encode an integer (sign + magnitude, at least one bit)."""
    magnitude = abs(value)
    return max(1, magnitude.bit_length()) + (1 if value < 0 else 0)


def _iterable_bits(items: Iterable[Any]) -> int:
    total = 0
    for item in items:
        total += _STRUCTURE_OVERHEAD_BITS + estimate_bits(item)
    return total


def estimate_bits(payload: Any) -> int:
    """Estimate the wire size of ``payload`` in bits.

    The estimate is deterministic and compositional:

    * ``None`` and booleans cost 1 bit;
    * integers cost their binary length (plus a sign bit);
    * floats cost 64 bits;
    * strings cost 8 bits per character;
    * tuples, lists, sets, frozensets and dicts cost the sum of their
      elements plus a small per-element overhead.

    Unknown objects fall back to the size of their ``repr``; algorithms in
    this repository only ever send the types above.
    """
    # Exact ints and strings — most payloads — skip the isinstance chain;
    # ``bool`` and other subclasses take the chain below.
    kind = type(payload)
    if kind is int:
        if payload < 0:
            return (-payload).bit_length() + 1
        return payload.bit_length() or 1
    if kind is str:
        return max(1, _BITS_PER_CHAR * len(payload))
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return _int_bits(payload)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return max(1, _BITS_PER_CHAR * len(payload))
    if isinstance(payload, (tuple, list, set, frozenset, dict)):
        # Containers are where the walk cost lives; scalars above are
        # cheaper to size than to hash.  Unmarshallable contents (custom
        # objects inside a tuple, say) skip the memo and walk every time.
        try:
            key = marshal.dumps(payload, 2)
        except (ValueError, TypeError):
            return _container_bits(payload)
        cached = _BITS_CACHE.get(key)
        if cached is None:
            if len(_BITS_CACHE) >= _BITS_CACHE_MAX:
                _BITS_CACHE.clear()
            cached = _BITS_CACHE[key] = _container_bits(payload)
        return cached
    return max(1, _BITS_PER_CHAR * len(repr(payload)))


def _container_bits(payload: Any) -> int:
    """Structural walk of a container payload (the uncached path)."""
    if isinstance(payload, (tuple, list)):
        return _iterable_bits(payload)
    if isinstance(payload, (set, frozenset)):
        return _iterable_bits(sorted(payload, key=repr))
    total = 0
    for key, value in payload.items():
        total += (
            _STRUCTURE_OVERHEAD_BITS + estimate_bits(key) + estimate_bits(value)
        )
    return total
