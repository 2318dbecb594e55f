"""A pinned corpus of class censuses and balance tables.

One sha256 covers `twisted_classes(P, 9/2)`, witnesses included, for
every space of the corpus, and `balance_table` at 9/2 of each pair of
neighbours in corpus order.  The corpus holds the presets, the dicosm and
the skew dicosm, their x <-> z swap and rotate-x conjugates, the JSON
round trip of each of those, and the 16 variant kinds of the benchmark's
generator for Tetra, Didi and the dicosm.  A change to the class
enumeration that keeps every result the same keeps this hash.  The
rotation kernels of the corpus spaces, taken by cross product, are checked
against the Hermite kernel.
"""

import hashlib
from fractions import Fraction

from unittest import mock

import pytest

from conftest import make_amphicosm, make_dicosm, make_skew_dicosm, rotate_x, swap_xz, variant_document
from platycosms import linalg
from platycosms.errors import UnsupportedGeometryError
from platycosms.euclid import PRESET_NAMES, presentation_from_json, presentation_to_json, preset
from platycosms.geodesics import balance_table, twisted_classes
from platycosms.linalg import fraction_to_str, integer_kernel, kernel3

MAX_LENGTH = Fraction(9, 2)

CORPUS_SHA256 = "0350ff8e1b78bafaf1ead6ef41d087f2a607f5e7e9e5e5a4433f3018b209a90d"


@pytest.fixture(scope="module")
def spaces():
    return corpus()


def corpus():
    """The corpus spaces, in a fixed order, under distinct names."""
    spaces = []
    for P in [preset(name) for name in PRESET_NAMES] + [make_dicosm(), make_skew_dicosm()]:
        for Q in (P, swap_xz(P), rotate_x(P)):
            doc = presentation_to_json(Q)
            doc["name"] = Q.name + "_json"
            spaces += [Q, presentation_from_json(doc)]
    for base in ("tetra", "didi", "dicosm"):
        for kind in range(16):
            spaces.append(presentation_from_json(
                variant_document(base, kind, kind, f"{base}_kind{kind}")))
    return spaces


def _text(values) -> str:
    return " ".join(map(fraction_to_str, values))


def class_lines(P):
    for c in twisted_classes(P, MAX_LENGTH):
        w = c.witness
        yield (f"{fraction_to_str(c.length)},{fraction_to_str(c.twist_over_pi)},"
               f"{c.imprimitivity},{c.count},{' / '.join(map(_text, w.rot))},{_text(w.trans)}")


def balance_lines(P1, P2):
    for pair in balance_table(P1, P2, MAX_LENGTH):
        for row in (pair.left, pair.right):
            entries = ";".join(f"{e.count} {fraction_to_str(e.twist_turns)} {e.imprimitivity} "
                               f"{fraction_to_str(e.weight)}" for e in row.entries)
            yield f"{fraction_to_str(pair.length)},{entries},{fraction_to_str(row.total)}"
        yield str(pair.balanced)


def corpus_digest(spaces) -> str:
    digest = hashlib.sha256()
    for P in spaces:
        digest.update(f"classes {P.name}\n".encode())
        for line in class_lines(P):
            digest.update(line.encode() + b"\n")
    for P1, P2 in zip(spaces, spaces[1:]):
        digest.update(f"balance {P1.name} {P2.name}\n".encode())
        for line in balance_lines(P1, P2):
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_corpus_classes_and_balance_are_pinned(spaces):
    assert len(spaces) == 6 * 3 * 2 + 48
    assert corpus_digest(spaces) == CORPUS_SHA256


def test_cross_product_kernels_match_hermite_kernels(spaces):
    """Every twisted rotation A of the corpus has an I - A^T of rank 2,
    whose kernel `kernel3` takes by cross product, with no Hermite
    reduction, and finds as `integer_kernel` does."""
    rotations = {A for P in spaces for A in P.form.rots[1:]}
    assert len(rotations) > 20
    for A in rotations:
        M = [[int(i == j) - A[j][i] for j in range(3)] for i in range(3)]
        expected = integer_kernel(M)
        with mock.patch.object(linalg, "integer_kernel") as hermite_path:
            assert kernel3(M) == expected
        hermite_path.assert_not_called()


def test_amphicosm_geodesics_are_refused():
    """The glide of the amphicosm fixes a plane, not an axis."""
    with pytest.raises(UnsupportedGeometryError, match="one-dimensional axis"):
        twisted_classes(make_amphicosm(), MAX_LENGTH)
