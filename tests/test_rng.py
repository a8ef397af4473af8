"""The keyed substreams: pinned output, and what the key does and does not change."""

import pytest

from carnotx.rng import substream

# The first four raw 64-bit outputs of two keys, one at each end of the seed
# range.  A change of generator, seeding or key hash fails here by name, before
# it shows as a diff in every golden report.
PINNED = {
    (0, "pin"): [
        0xF12D0A1133595451,
        0x647638A2A19B8B3D,
        0xA0F8035672EE0FDA,
        0xFD0F04D997A83F78,
    ],
    (2**64 - 1, "a", 3): [
        0x6608C22F7350F129,
        0xDDF347828E3CC70D,
        0x7B91182D22B6F308,
        0xF851A4546C3FE053,
    ],
}


@pytest.mark.parametrize("key", list(PINNED), ids=["seed-0", "seed-max"])
def test_first_raw_outputs_are_pinned(key):
    assert [int(x) for x in substream(*key).bit_generator.random_raw(4)] == PINNED[key]


def test_a_key_always_gives_the_same_stream():
    a, b = substream(7, "box", "rhs", 3), substream(7, "box", "rhs", 3)
    assert a.random(1000).tobytes() == b.random(1000).tobytes()


@pytest.mark.parametrize(
    "other",
    [(8, "box", "rhs", 3), (7, "bux", "rhs", 3), (7, "box", "rhs", 4), (7, "box", "rhs")],
    ids=["seed", "first-part", "last-part", "shorter-path"],
)
def test_changing_one_part_of_the_key_changes_the_first_draw(other):
    assert substream(*other).random() != substream(7, "box", "rhs", 3).random()


@pytest.mark.parametrize("part", [-1, 2**64, 3 + 2**64])
def test_an_integer_part_outside_the_key_range_is_rejected(part):
    # Reduced mod 2^64, -1 would draw the stream of 2^64 - 1, and 3 + 2^64 that of 3.
    with pytest.raises(ValueError, match=r"integer path parts must lie in \[0, 2\^64\)"):
        substream(0, "a", part)
    substream(0, "a", 2**64 - 1)  # the top of the range stays a valid part
