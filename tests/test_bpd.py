import os

import pytest

from bumpless import bpd as B
from bumpless import perms as P

EXTENDED = bool(os.environ.get("BUMPLESS_EXTENDED"))

ROTHE_4721653 = (
    "...L---",
    "...|..L",
    ".L-+--+",
    "L+-+--+",
    "||.|.L+",
    "||.|L++",
    "||L++++",
)

DOUBLE_CROSSING = (
    "..L-",
    ".L+-",
    "L+JL",
    "||L+",
)


def phi_oracle(w, corner):
    """Row indices i < a whose transposition with a lifts v by one length."""
    a, b = corner
    c = P.inverse(w)[b - 1]
    v = P.apply_transposition(w, a, c)
    lv = P.coxeter_length(v)
    out = set()
    for i in range(1, a):
        if P.coxeter_length(P.apply_transposition(v, i, a)) == lv + 1:
            out.add(P.apply_transposition(v, i, a))
    return v, out


def test_rothe_bpd_of_4721653_matches_display():
    w = P.perm_from_text("4721653")
    R = B.rothe_bpd(w)
    assert R == ROTHE_4721653
    assert B.diagram(R) == P.rothe_diagram(w)
    assert B.permutation_of(R) == w


def test_rothe_bpd_of_identity():
    R = B.rothe_bpd(P.identity(4))
    assert R == ("L---", "|L--", "||L-", "|||L")
    assert B.diagram(R) == frozenset()


def test_rothe_round_trip_s5():
    for w in P.all_perms(5):
        R = B.rothe_bpd(w)
        assert B.permutation_of(R) == w
        assert B.diagram(R) == P.rothe_diagram(w)
        assert "J" not in "".join(R)


def test_validation_rejects_edge_mismatch():
    with pytest.raises(B.InvalidBpd):
        B.validate_bpd(("L-", ".L"))


def test_validation_rejects_boundary_leaks():
    with pytest.raises(B.InvalidBpd):
        B.validate_bpd(("|L", "LJ"))
    with pytest.raises(B.InvalidBpd):
        B.validate_bpd(("..", "LL"))


def test_validation_rejects_double_crossing():
    for row in DOUBLE_CROSSING:
        assert set(row) <= set(B.GLYPHS)
    with pytest.raises(B.InvalidBpd, match="cross more than once"):
        B.validate_bpd(DOUBLE_CROSSING)


@pytest.mark.parametrize(
    "grid, message",
    [
        ((), "grid is not square"),
        (("L-", "|"), "grid is not square"),
        (("Lx", "|L"), "unknown tile glyph 'x'"),
        (("|L", "LJ"), "pipe leaks through the top boundary at column 1"),
        (("-",), "pipe leaks through the left boundary at row 1"),
        ((".",), "missing pipe entry at bottom of column 1"),
        (("..", "LL"), "missing pipe exit at right of row 1"),
        (("L-", ".."), "edge mismatch between (1,1) and (2,1)"),
        (("L.", "|L"), "edge mismatch between (1,1) and (1,2)"),
        (DOUBLE_CROSSING, "pipes (1, 2) cross more than once"),
        # pipes 1 and 3 meet again first going up the rows, but the
        # report takes the crossings by the pipe passing vertically
        (("...L-", ".L-+-", ".|L+-", "L++JL", "|||L+"), "pipes (1, 2) cross more than once"),
    ],
)
def test_validation_messages(grid, message):
    with pytest.raises(B.InvalidBpd) as exc:
        B.validate_bpd(grid)
    assert str(exc.value) == message


def test_every_single_tile_mutation_is_rejected_s4():
    for w in P.all_perms(4):
        for x in B.enumerate_bpds(w):
            for i, row in enumerate(x):
                for j, old in enumerate(row):
                    for new in B.GLYPHS.replace(old, ""):
                        bad = x[:i] + (row[:j] + new + row[j + 1 :],) + x[i + 1 :]
                        with pytest.raises(B.InvalidBpd):
                            B.validate_bpd(bad)


def test_enumerate_counts_tiny():
    assert len(B.enumerate_bpds((2, 1, 3))) == 1
    assert len(B.enumerate_bpds((1, 3, 2))) == 2
    assert len(B.enumerate_bpds(P.identity(4))) == 1


def test_every_tiling_is_valid_and_spells_its_word():
    for n in range(1, 8 if EXTENDED else 7):
        for w in P.all_perms(n):
            for x in B.enumerate_bpds(w):
                assert B.validate_bpd(x, w) == x


@pytest.mark.parametrize("word", [(1, 1), (2, 3), (0, 1)])
def test_enumeration_checks_its_word_like_validate_perm(word):
    with pytest.raises(ValueError) as expected:
        P.validate_perm(word)
    with pytest.raises(ValueError) as got:
        B.enumerate_bpds(word)
    assert str(got.value) == str(expected.value)


def test_the_empty_word_has_the_empty_tiling():
    assert B.enumerate_bpds(()) == frozenset({()})


def test_row_search_runs_no_per_tiling_checks(monkeypatch):
    """The row search builds only valid tilings of w, so it neither takes
    a length nor validates a finished tiling."""
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(P, "coxeter_length", counting(P.coxeter_length))
    monkeypatch.setattr(B, "validate_bpd", counting(B.validate_bpd))
    for w in [(1, 4, 3, 2), P.perm_from_text("153264"), P.perm_from_text("4721653")]:
        calls.clear()
        grids = B.enumerate_bpds(w)
        assert calls == [] and 2 < len(grids)


def test_permutation_of_traces_each_grid_once(monkeypatch):
    grids = B.enumerate_bpds((2, 1, 4, 3))
    trace = B._trace
    calls = []

    def counting(rows):
        calls.append(rows)
        return trace(rows)

    monkeypatch.setattr(B, "_trace", counting)
    for x in grids:
        calls.clear()
        assert B.permutation_of(x) == (2, 1, 4, 3)
        assert calls == [x]


def test_bpds_of_132_have_expected_diagrams():
    got = {B.diagram(x) for x in B.enumerate_bpds((1, 3, 2))}
    assert got == {frozenset({(1, 1)}), frozenset({(2, 2)})}
    for x in B.enumerate_bpds((1, 3, 2)):
        assert B.permutation_of(x) == (1, 3, 2)


def test_three_droops_into_5_5():
    R = B.rothe_bpd(P.perm_from_text("4721653"))
    moves = [m for m in B.legal_droops(R) if m[1] == (5, 5)]
    assert len(moves) == 3
    assert {m[0] for m in moves} == {(1, 4), (3, 2), (4, 1)}


def test_apply_droop_rejects_bad_moves():
    R = B.rothe_bpd((2, 1, 4, 3))
    with pytest.raises(ValueError, match="not blank"):
        B.apply_droop(R, ((1, 2), (4, 4)))
    with pytest.raises(ValueError, match="not a down-elbow"):
        B.apply_droop(R, ((1, 1), (3, 3)))
    wide = B.rothe_bpd((1, 3, 2, 5, 4))
    with pytest.raises(ValueError, match="another elbow"):
        B.apply_droop(wide, ((1, 1), (4, 4)))
    assert ((1, 1), (4, 4)) not in B.legal_droops(wide)


def test_droops_preserve_permutation_s4():
    for w in P.all_perms(4):
        for x in B.enumerate_bpds(w):
            for move in B.legal_droops(x):
                y = B.apply_droop(x, move)
                assert B.permutation_of(y) == w


def test_row_search_equals_the_droop_closure_oracle_s6():
    # The closure of the Rothe tiling under droop moves, breadth first.
    def bfs(w):
        start = B.rothe_bpd(w)
        seen = {start}
        queue = [start]
        k = 0
        while k < len(queue):
            cur = queue[k]
            k += 1
            for move in sorted(B.legal_droops(cur)):
                nxt = B.apply_droop(cur, move)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return frozenset(seen)

    for w in P.all_perms(6):
        assert bfs(w) == B.enumerate_bpds(w)


def test_corner_tiles_blank_or_up_elbow_s5():
    # every element of BPD(w) carries a blank or an up-elbow at each lower
    # outside corner of the diagram
    for w in P.all_perms(5):
        bpds = B.enumerate_bpds(w)
        for a, b in P.lower_outside_corners(w):
            assert all(x[a - 1][b - 1] in ".J" for x in bpds)


def test_corner_tile_check_dominant():
    # a dominant permutation has a single element in its droop class
    w = (3, 2, 1)
    assert len(B.enumerate_bpds(w)) == 1
    for a, b in P.lower_outside_corners(w):
        assert all(x[a - 1][b - 1] in ".J" for x in B.enumerate_bpds(w))


def test_transition_example_blank_case():
    R = B.rothe_bpd(P.perm_from_text("4721653"))
    img = B.transition_bijection(R, (5, 5))
    assert img == B.rothe_bpd(P.perm_from_text("4721563"))


def test_transition_example_elbow_cases():
    R = B.rothe_bpd(P.perm_from_text("4721653"))
    got = {}
    for m in B.legal_droops(R):
        if m[1] != (5, 5):
            continue
        img = B.transition_bijection(B.apply_droop(R, m), (5, 5))
        got[m[0]] = (P.perm_to_text(B.permutation_of(img)), img)
    assert {v[0] for v in got.values()} == {"5721463", "4751263", "4725163"}
    for text, img in got.values():
        assert img == B.rothe_bpd(P.perm_from_text(text))


def test_transition_rejects_non_corner():
    R = B.rothe_bpd((2, 1, 4, 3))
    with pytest.raises(ValueError):
        B.transition_bijection(R, (1, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transition_bijection_exhaustive(n):
    for w in P.all_perms(n):
        for corner in P.lower_outside_corners(w):
            a, b = corner
            v, phi = phi_oracle(w, corner)
            sources = B.enumerate_bpds(w)
            images = {}
            for x in sources:
                y = B.transition_bijection(x, corner)
                assert y not in images.values(), "bijection image repeated"
                images[x] = y
                u = B.permutation_of(y)
                if x[a - 1][b - 1] == ".":
                    assert u == v
                    assert B.diagram(x) == B.diagram(y) | {corner}
                    assert corner not in B.diagram(y)
                else:
                    assert u in phi
                    assert B.diagram(x) == B.diagram(y)
            # exact coverage of the target side, elementwise
            targets = {v: set(B.enumerate_bpds(v))}
            for u in phi:
                targets[u] = set(B.enumerate_bpds(u))
            got = {}
            for y in images.values():
                got.setdefault(B.permutation_of(y), set()).add(y)
            assert got == {u: t for u, t in targets.items() if t}
            assert len(sources) == sum(len(t) for t in targets.values())


def test_text_and_json_round_trip():
    for w in [(2, 1, 4, 3), (1, 3, 2)]:
        for x in B.enumerate_bpds(w):
            assert B.validate_bpd(B.bpd_to_text(x).splitlines()) == x
            assert B.bpd_from_json(B.bpd_to_json(x)) == x
    with pytest.raises(B.InvalidBpd):
        B.bpd_from_json([["blank", "mystery"], ["blank", "blank"]])
