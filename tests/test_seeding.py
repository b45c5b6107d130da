import hashlib
import importlib
import importlib.util
import sys

import pytest

from salmetric import seeding


def reference_seed(*parts) -> int:
    """The seed as the README states it: the first 8 bytes of the SHA-256 of
    the parts' strings joined by 0x1f, read little-endian, shifted right 1."""
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little") >> 1


# ints (negative, 0, past 2**64), ASCII and non-ASCII ids, and messages of
# 0, 55, 56, 63, 64, 119 and 200 bytes: SHA-256 pads a message of 55 bytes
# into one block and one of 56 into two, and 119 bytes is the two-block edge
CORPUS = [
    (0,), (-1,), (-(2 ** 70), 3), (2 ** 64,), (2 ** 64 + 1, "tie-noise"), (7, 0), (7, 99),
    ("img00",), (0, "img00"), (5, "synth_0399", 2), ("tie-noise",),
    ("é",), (0, "bild-ü"), ("画像", -3), ("😀", 2 ** 80), (), ("", ""),
    *(("m" * n,) for n in (0, 55, 56, 63, 64, 119, 200)),
]


@pytest.mark.parametrize("parts", CORPUS)
def test_derive_seed_equals_the_hashlib_reference(parts):
    seed = seeding.derive_seed(*parts)
    assert seed == reference_seed(*parts)
    assert 0 <= seed < 2 ** 63


def test_derive_seed_pins_a_known_value():
    # SHA-256 of b"0" begins 5feceb66ffc86f38, so a change of encoding, byte
    # order or shift shows even where the reference above would change with it
    assert seeding.derive_seed(0) == int.from_bytes(bytes.fromhex("5feceb66ffc86f38"), "little") >> 1


@pytest.mark.parametrize("blocked", [("_sha2",), ("_sha2", "_sha256")],
                         ids=["no _sha2", "no internal module"])
def test_each_import_branch_gives_the_same_seeds(monkeypatch, blocked):
    """With ``_sha2`` gone (Python 3.10 and 3.11) the module takes ``_sha256``;
    with both gone (a build without them) it takes ``hashlib``'s. Every branch
    derives the same seeds. The module is reloaded as it was afterwards."""
    expected = [reference_seed(*parts) for parts in CORPUS]
    try:
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        importlib.reload(seeding)
        if blocked == ("_sha2", "_sha256"):
            assert seeding.sha256 is hashlib.sha256
        elif importlib.util.find_spec("_sha256") is not None:
            assert seeding.sha256 is importlib.import_module("_sha256").sha256
        assert [seeding.derive_seed(*parts) for parts in CORPUS] == expected
    finally:
        monkeypatch.undo()
        importlib.reload(seeding)
    assert [seeding.derive_seed(*parts) for parts in CORPUS] == expected
