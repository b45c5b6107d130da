"""Stable seed derivation so every sampled quantity is reproducible.

Python's builtin ``hash`` is salted per process, so seeds for split indices
and image ids are derived through sha256 instead.
"""

# hashlib maps and initialises OpenSSL's libcrypto on import; the interpreter's
# own sha256 module gives the same digest without it, as CPython's random.py does
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the internal modules, a FIPS one say
        from hashlib import sha256


def derive_seed(*parts) -> int:
    """Collapse ints and strings into a stable 63-bit seed."""
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(sha256(blob).digest()[:8], "little") >> 1
