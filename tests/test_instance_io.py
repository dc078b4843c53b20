import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diskdispersal.geometry import (Point, close_pairs, dist2, scale_points,
                                    within_move)
from diskdispersal.instance_io import (
    Instance,
    LatticeBlock,
    ParseError,
    Rect,
    ValidationResult,
    Witness,
    _clear_range,
    apply_witness,
    expand_blocks,
    parse_instance,
    parse_witness,
    validate_witness,
    write_instance,
    write_witness,
)
from diskdispersal.numerics import (IndeterminateError, Interval, Ordering,
                                    ceil_sqrt, compare, parse_scalar, quadext)


def P(x, y):
    return Point(F(x), F(y))


FIG1 = Instance("euclidean", 1, F(3), (P(0, 0), P(1, 0), P(2, 0)))

SPEC_FILE = """DISKDISPERSAL v1
variant: euclidean            # or: rectilinear
k: 1
d2: 3
disks: 3
0 0
1 0
2 0
blocks: 1
-10 -10 30 30 step 2 holes 1
-1 -1 3 1
"""


class TestParsing:
    def test_format_example_parses(self):
        inst = parse_instance(SPEC_FILE)
        assert inst.variant == "euclidean"
        assert inst.k == 1 and inst.d2 == 3
        assert inst.disks == FIG1.disks
        assert len(inst.blocks) == 1
        b = inst.blocks[0]
        assert (b.x0, b.y0, b.x1, b.y1, b.step) == (-10, -10, 30, 30, 2)
        assert b.holes == (Rect(F(-1), F(-1), F(3), F(1)),)

    def test_empty_instance(self):
        inst = parse_instance(
            "DISKDISPERSAL v1\nvariant: euclidean\nk: 0\nd2: 0\ndisks: 0\n")
        assert inst.disks == () and inst.blocks == ()

    def test_negative_k_reports_line(self):
        bad = SPEC_FILE.replace("k: 1", "k: -1")
        with pytest.raises(ParseError) as ei:
            parse_instance(bad)
        assert ei.value.line == 3

    def test_negative_block_count_reports_line(self):
        bad = SPEC_FILE.replace("blocks: 1", "blocks: -2")
        with pytest.raises(ParseError) as ei:
            parse_instance(bad)
        assert ei.value.line == 9 and "block count" in ei.value.msg

    def test_negative_hole_count_reports_line(self):
        bad = SPEC_FILE.replace("holes 1", "holes -3")
        with pytest.raises(ParseError) as ei:
            parse_instance(bad)
        assert ei.value.line == 10 and "hole count" in ei.value.msg

    def test_bad_rational_reports_line(self):
        bad = SPEC_FILE.replace("1 0", "1 zz", 1)
        with pytest.raises(ParseError) as ei:
            parse_instance(bad)
        assert "zz" in str(ei.value)

    def test_round_trip_is_canonical(self):
        inst = parse_instance(SPEC_FILE)
        text = write_instance(inst)
        assert parse_instance(text) == inst
        assert write_instance(parse_instance(text)) == text

    def test_model_round_trip(self):
        assert parse_instance(write_instance(FIG1)) == FIG1

    # every number field takes the literal grammar of the coordinates:
    # integers [+-]?\d+ and rationals [+-]?\d+(/\d+)?
    @pytest.mark.parametrize("old, new, line, tok", [
        ("d2: 3", "d2: 0.25", 4, "0.25"),
        ("d2: 3", "d2: 1e-3", 4, "1e-3"),
        ("d2: 3", "d2: 1_000", 4, "1_000"),
        ("k: 1", "k: 1_0", 3, "1_0"),
        ("disks: 3", "disks: 0_3", 5, "0_3"),
        ("blocks: 1", "blocks: 1.0", 9, "1.0"),
        ("-10 -10 30", "-1e1 -10 30", 10, "-1e1"),
        ("step 2 ", "step 2.0 ", 10, "2.0"),
        ("holes 1", "holes 1_0", 10, "1_0"),
        ("-1 -1 3 1", "-1 -1 3 0.5", 11, "0.5"),
        # digits are ASCII only: others would not write back as read
        ("k: 1", "k: \uff11", 3, "\uff11"),
        ("k: 1", "k: \u0662", 3, "\u0662"),
        ("d2: 3", "d2: \uff13", 4, "\uff13"),
        ("d2: 3", "d2: \u0663/\u0664", 4, "\u0663/\u0664"),
        ("1 0", "\uff11 0", 7, "\uff11"),
        ("1 0", "\u0663 4", 7, "\u0663"),
        ("2 0", "2 1+1*sqrt(\uff12)", 8, "1+1*sqrt(\uff12)"),
        ("2 0", "2 1+1*sqrt(\u0663)", 8, "1+1*sqrt(\u0663)"),
        ("2 0", "2 1.\u0665~", 8, "1.\u0665~"),
    ])
    def test_number_fields_share_one_grammar(self, old, new, line, tok):
        bad = SPEC_FILE.replace(old, new, 1)
        assert bad != SPEC_FILE
        with pytest.raises(ParseError) as ei:
            parse_instance(bad)
        assert ei.value.line == line and repr(tok) in ei.value.msg

    @pytest.mark.parametrize("text, line, tok", [
        ("DISPERSALMOVES v1\nmoves: 1_0\n", 2, "1_0"),
        ("DISPERSALMOVES v1\nmoves: 1\n1_0 -> 5 0\n", 3, "1_0"),
        ("DISPERSALMOVES v1\nmoves: 1\n1.0 -> 5 0\n", 3, "1.0"),
        ("DISPERSALMOVES v1\nmoves: \uff11\n1 -> 5 0\n", 2, "\uff11"),
        ("DISPERSALMOVES v1\nmoves: 1\n\uff11 -> 5 0\n", 3, "\uff11"),
        ("DISPERSALMOVES v1\nmoves: 1\n\u0661 -> 5 0\n", 3, "\u0661"),
        ("DISPERSALMOVES v1\nmoves: 1\n1 -> \u0665 0\n", 3, "\u0665"),
    ])
    def test_witness_integers_share_one_grammar(self, text, line, tok):
        with pytest.raises(ParseError) as ei:
            parse_witness(text)
        assert ei.value.line == line and repr(tok) in ei.value.msg

    def test_canonical_files_round_trip_bytes(self):
        text = ("DISKDISPERSAL v1\nvariant: rectilinear\nk: 2\nd2: 9/4\n"
                "disks: 2\n-7/2 0\n1/3 1+1*sqrt(2)\nblocks: 1\n"
                "-10 -21/2 30 30 step 5/2 holes 1\n-1/2 -1 3 1\n")
        assert write_instance(parse_instance(text)) == text
        wtext = "DISPERSALMOVES v1\nmoves: 2\n0 -> -5/2 0\n7 -> 1 2\n"
        assert write_witness(parse_witness(wtext)) == wtext


class TestCoordinateSharing:
    """A parse builds one scalar per distinct coordinate token."""

    TOKENS = [("3/2", "1+1*sqrt(2)"), ("1.5~", "3/2"),
              ("1+1*sqrt(2)", "1.5~"), ("3/2", "1.5~")]

    def test_repeated_tokens_share_one_scalar(self):
        text = ("DISKDISPERSAL v1\nvariant: euclidean\nk: 1\nd2: 1\n"
                "disks: 4\n" + "".join(f"{x} {y}\n" for x, y in self.TOKENS))
        inst = parse_instance(text)
        a, b, c, d = inst.disks
        assert a.x is b.y is d.x  # a rational
        assert a.y is c.x  # a radical
        assert b.x is c.y is d.y  # a ~ literal
        assert inst == Instance("euclidean", 1, F(1), tuple(
            Point(parse_scalar(x), parse_scalar(y)) for x, y in self.TOKENS))

    def test_bad_token_reports_its_first_line(self):
        text = ("DISKDISPERSAL v1\nvariant: euclidean\nk: 1\nd2: 1\n"
                "disks: 4\nzz 0\n1 0\n2 0\n3 zz\n")
        with pytest.raises(ParseError) as ei:
            parse_instance(text)
        assert ei.value.line == 6 and "'zz'" in ei.value.msg

    def test_witness_targets_share_one_scalar(self):
        text = ("DISPERSALMOVES v1\nmoves: 3\n" + "".join(
            f"{i} -> {x} {y}\n" for i, (x, y) in enumerate(self.TOKENS[:3])))
        w = parse_witness(text)
        assert w.moves[0].x is w.moves[1].y
        assert w.moves[0].y is w.moves[2].x
        assert w.moves[1].x is w.moves[2].y
        assert w.moves == {i: Point(parse_scalar(x), parse_scalar(y))
                           for i, (x, y) in enumerate(self.TOKENS[:3])}


class TestWitnessFormat:
    def test_spec_example(self):
        w = parse_witness("DISPERSALMOVES v1\nmoves: 1\n1 -> 1 0+1*sqrt(3)\n")
        assert set(w.moves) == {1}
        assert w.moves[1].x == F(1)

    def test_empty_witness(self):
        text = write_witness(Witness({}))
        assert "moves: 0" in text
        assert parse_witness(text).moves == {}

    def test_negative_move_count_reports_line(self):
        with pytest.raises(ParseError) as ei:
            parse_witness("DISPERSALMOVES v1\nmoves: -1\n")
        assert ei.value.line == 2 and "move count" in ei.value.msg

    def test_duplicate_index_rejected(self):
        bad = "DISPERSALMOVES v1\nmoves: 2\n1 -> 5 0\n1 -> 7 0\n"
        with pytest.raises(ParseError):
            parse_witness(bad)

    def test_round_trip(self):
        w = Witness({1: Point(F(1), quadext(0, 1, 3)), 0: P(-2, F(1, 2))})
        assert write_witness(parse_witness(write_witness(w))) == \
            write_witness(w)


class TestReaderLines:
    """Blank and comment-only lines count for line numbers but hold no
    content: the end of a text is reported one past its last line with
    content, and trailing content at its own line."""

    HEAD = "DISKDISPERSAL v1\nvariant: euclidean\nk: 1\nd2: 1\n"
    TAIL = "\n   \n# a comment\n\t# another\n\n"

    @pytest.mark.parametrize("text, line, what", [
        ("", 1, "header"),
        ("\n  \n# only a comment\n", 1, "header"),
        (HEAD + "disks: 2\n0 0  # the first\n" + TAIL, 7, "disk coordinates"),
        (HEAD + "\n# disks next\n" + TAIL, 5, "'disks:'"),
        (HEAD + "disks: 0\nblocks: 1\n" + TAIL, 7, "block definition"),
        (HEAD + "disks: 0\nblocks: 1\n\n0 0 9 9 step 2 holes 1\n" + TAIL,
         9, "hole rectangle"),
        ("DISPERSALMOVES v1\n# none yet\n" + TAIL, 2, "'moves:'"),
        ("DISPERSALMOVES v1\nmoves: 2\n\n0 -> 1 1\n" + TAIL, 5, "move line"),
        ("DISPERSALMOVES v1\r\nmoves: 2\r\n0 -> 1 1\r\n\r\n# c\r\n", 4,
         "move line"),
    ])
    def test_end_of_file_is_one_past_last_content(self, text, line, what):
        parse = parse_witness if text.startswith("DISPERSAL") \
            else parse_instance
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert ei.value.line == line
        assert ei.value.msg == f"unexpected end of file, expected {what}"

    @pytest.mark.parametrize("text, line, content", [
        (HEAD + "disks: 1\n0 0\nblocks: 0\n" + TAIL + "7 7 # late\n" + TAIL,
         13, "7 7"),
        (HEAD + "disks: 0\nblocks: 1\n0 0 9 9 step 2 holes 0\n" + TAIL
         + "  extra  tokens \n", 13, "extra tokens"),
        ("DISPERSALMOVES v1\nmoves: 1\n0 -> 1 1\n" + TAIL
         + "1 -> 2 2  # late\n" + TAIL, 9, "1 -> 2 2"),
        ("DISPERSALMOVES v1\nmoves: 0\n# none\n\nmoves: 0\n", 5,
         "moves: 0"),
    ])
    def test_trailing_content_reports_its_line(self, text, line, content):
        parse = parse_witness if text.startswith("DISPERSAL") \
            else parse_instance
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert ei.value.line == line
        assert ei.value.msg == f"unexpected trailing content {content!r}"

    def test_blank_and_comment_tails_parse(self):
        inst = parse_instance(self.HEAD + "disks: 1\n3 4\n" + self.TAIL)
        assert inst.disks == (P(3, 4),) and inst.blocks == ()
        inst = parse_instance(self.HEAD + "disks: 0\nblocks: 0" + self.TAIL)
        assert inst.disks == () and inst.blocks == ()
        w = parse_witness("DISPERSALMOVES v1\nmoves: 1\n0 -> 3 4" + self.TAIL)
        assert w.moves == {0: P(3, 4)}


class TestValidation:
    def test_tangency_witness_exact_accept(self):
        w = Witness({1: Point(F(1), quadext(0, 1, 3))})
        assert validate_witness(FIG1, w).status == "accept"

    def test_budget_reject(self):
        inst = Instance("euclidean", 0, F(3), FIG1.disks)
        w = Witness({1: Point(F(1), quadext(0, 1, 3))})
        res = validate_witness(inst, w)
        assert res.status == "reject" and res.reason == "budget"

    def test_packing_reject_names_pair(self):
        w = Witness({})
        res = validate_witness(FIG1, w)
        assert res.status == "reject"
        assert res.reason == "packing" and res.detail == (0, 1)

    def test_move_too_long_reject(self):
        inst = Instance("euclidean", 1, F(1), FIG1.disks)
        w = Witness({1: Point(F(1), quadext(0, 1, 3))})
        res = validate_witness(inst, w)
        assert res.status == "reject" and res.reason == "move"

    def test_rectilinear_axis_enforced(self):
        inst = Instance("rectilinear", 1, F(100), FIG1.disks)
        res = validate_witness(inst, Witness({1: P(4, 1)}))
        assert res.status == "reject" and res.reason == "move"
        assert validate_witness(
            inst, Witness({1: P(1, 10)})).status == "accept"

    def test_exact_accept_implies_tolerant_accept(self):
        w = Witness({1: Point(F(1), quadext(0, 1, 3))})
        for eps in (F(1, 10 ** 9), F(1, 100), F(1)):
            res = validate_witness(FIG1, w, eps)
            assert res.status == "accept" and res.eps == eps

    def test_tolerant_accepts_marginal_tilde_witness(self):
        text = "DISPERSALMOVES v1\nmoves: 1\n1 -> 1 1.7320508~\n"
        w = parse_witness(text)
        assert validate_witness(FIG1, w, F(1, 10 ** 6)).status == "accept"
        assert validate_witness(FIG1, w).status == "indeterminate"

    def test_large_irrational_overlap_names_first_pair(self):
        # 156 disks 4 apart; two moves to radical targets that overlap
        disks = tuple(P(4 * i, 4 * j) for j in range(12) for i in range(13))
        inst = Instance("euclidean", 2, F(300), disks)
        w = Witness({5: Point(quadext(2, 1, 2), F(0)),       # near disk 1
                     3: Point(F(12), quadext(6, 1, 2))})     # near disk 29
        final = [w.moves.get(i, d) for i, d in enumerate(disks)]
        brute = next((i, j) for i in range(len(final))
                     for j in range(i + 1, len(final))
                     if compare(dist2(final[i], final[j]), 4) is Ordering.LESS)
        res = validate_witness(inst, w)
        assert res.status == "reject" and res.reason == "packing"
        assert res.detail == brute == (1, 5)

    def test_index_out_of_range_is_error(self):
        with pytest.raises(ValueError):
            validate_witness(FIG1, Witness({9: P(0, 0)}))

    @pytest.mark.parametrize("eps", [F(-2), F(-1, 2)])
    def test_negative_eps_is_error(self, eps):
        # -2 once made the move budget negative, and -1/2 was accepted as a
        # tolerance stricter than exact mode
        inst = Instance("euclidean", 1, F(1), FIG1.disks)
        with pytest.raises(ValueError) as info:
            validate_witness(inst, Witness({1: P(1, 1)}), eps)
        assert type(info.value) is ValueError
        assert str(info.value) == "eps must be nonnegative"

    @pytest.mark.parametrize("idx", [5, -1])
    def test_apply_index_out_of_range_is_error(self, idx):
        w = Witness({idx: P(9, 9)})
        with pytest.raises(ValueError,
                           match=f"^witness index {idx} out of range$"):
            apply_witness(FIG1, w)

    def test_apply_then_empty_witness_accepts(self):
        w = Witness({1: Point(F(1), quadext(0, 1, 3))})
        after = apply_witness(FIG1, w)
        assert validate_witness(after, Witness({})).status == "accept"


def reference_validate(inst, w, eps=None):
    """validate_witness on the final list as a whole: the moves by
    within_move, close_pairs over the final list on its own scale_points,
    first_close of each block, then each pair of blocks on all the lattice
    points of the first."""
    if len(w.moves) > inst.k:
        return ValidationResult("reject", "budget", len(w.moves), eps)
    sep = F(4) if eps is None else F(4) - eps
    budget = inst.d2 if eps is None else inst.d2 + eps
    try:
        for idx, target in sorted(w.moves.items()):
            if not within_move(inst.disks[idx], target, budget, inst.variant):
                return ValidationResult("reject", "move", idx, eps)
        final = [w.moves.get(i, d) for i, d in enumerate(inst.disks)]
        bad = next(close_pairs(final, sep, scaled=scale_points(final)), None)
        if bad is not None:
            return ValidationResult("reject", "packing", bad, eps)
        for b in inst.blocks:
            if b.step ** 2 < sep:
                return ValidationResult("reject", "block-step", b.step, eps)
            hit = b.first_close(final, sep)
            if hit is not None:
                return ValidationResult("reject", "block", hit[0], eps)
        for bi, a in enumerate(inst.blocks):
            for bj in range(bi + 1, len(inst.blocks)):
                if inst.blocks[bj].first_close(list(a.iter_disks()), sep):
                    return ValidationResult("reject", "block", (bi, bj), eps)
    except IndeterminateError as e:
        return ValidationResult("indeterminate", str(e), None, eps)
    return ValidationResult("accept", None, None, eps)


# primes above 2^21, one per shifted disk
BIG_PRIMES = [p for p in range(2 ** 21 + 1, 2 ** 21 + 2000, 2)
              if all(p % q for q in range(3, 1449, 2))][:40]


def tilde(v):
    """A ``~`` literal enclosing v, nine decimals wide."""
    return parse_scalar(f"{float(v):.9f}~")


def differential_case(seed):
    """An instance and five (witness, eps) pairs to validate in sequence.

    10-36 disks, one to a cell of a 7x7 grid of pitch 4, are clear of each
    other.  One or two more are planted within 2 of a disk, some at squared
    distance 3.61, close at eps None or 1/100 but not at 1/2.  A ``~`` disk
    u lies sqrt(2) right of and above a rational disk a: exactly 2 apart
    within the enclosure, an undecidable pair in exact mode.  By seed:
    integer coordinates, x shifted by 1/p for a prime p > 2^21, or radical
    or ``~`` coordinates on a quarter of the disks and on the targets; both
    variants; no block, one, or two.  The witnesses: the empty one; one
    moving a disk of the undecidable pair below the grid; one moving the
    planted disks and that disk below the grid, in the ``~`` kind at times
    the first of them onto an enclosure that touches more than four cells;
    one moving up to three disks a short way; the empty one again.  A ``~``
    instance holds such a wide disk at times, too.
    """
    rng = random.Random(f"validate-{seed}")
    kind = ("integer", "off-scale", "radical", "tilde")[seed % 4]
    variant = ("euclidean", "rectilinear")[seed // 4 % 2]
    n = rng.randint(10, 36)
    cells = rng.sample([(i, j) for i in range(7) for j in range(7)], n)
    jitter = 0 if kind == "integer" else 4
    disks = [P(4 * i + F(rng.randint(0, jitter), 8),
               4 * j + F(rng.randint(0, jitter), 8)) for i, j in cells]
    if kind == "off-scale":
        disks = [Point(d.x + F(1, p), d.y) for d, p in zip(disks, BIG_PRIMES)]
    elif kind != "integer":
        for i in rng.sample(range(n), n // 4):
            x = disks[i].x + F(1, 16)
            disks[i] = Point(quadext(x, F(1, 16), 2) if kind == "radical"
                             else tilde(x), disks[i].y)
    a = rng.choice([d for d in disks if d.is_rational()])
    u = Point(tilde(a.x + 2 ** 0.5), tilde(a.y + 2 ** 0.5))
    disks.insert(rng.randrange(len(disks) + 1), u)
    planted = []
    for _ in range(rng.randint(1, 2)):
        b = rng.choice(disks)
        dx, dy = rng.choice([(1, 1), (F(19, 10), 0), (0, F(-3, 2)),
                             (F(6, 5), F(6, 5)), (0, F(19, 10))])
        planted.append(Point(b.x + dx, b.y + dy))
        disks.insert(rng.randrange(len(disks) + 1), planted[-1])
    if kind == "tilde" and rng.random() < 0.3:
        # far from every disk, but its squared distance to those within 4
        # below, in interval arithmetic, reaches below 4
        disks.insert(rng.randrange(len(disks) + 1),
                     Point(Interval(F(-8), F(4)), F(-21, 5)))
    blocks = []
    for y0 in rng.choice([(), (F(0),), (F(0), F(30)), (F(0), F(57, 2))]):
        step = rng.choice([F(2), F(3), F(3), F(1)] if y0 else [F(2), F(3)])
        blocks.append(LatticeBlock(F(-12), y0, F(-4), y0 + 27, step,
                                   (Rect(F(-9), y0 + 10, F(-6), y0 + 16),)))
    inst = Instance(variant, 3, rng.choice([F(9), F(2500), F(2500)]),
                    tuple(disks), tuple(blocks))
    index = {id(d): i for i, d in enumerate(inst.disks)}

    def target(i, dx, dy):
        """Disk i moved by (dx, dy), by y alone in the rectilinear variant;
        a moved rational coordinate is made radical or ``~`` by kind, and
        at random in the off-scale kind."""
        p = inst.disks[i]
        if variant == "rectilinear" and dy:
            dx = 0
        style = kind if kind in ("radical", "tilde") else "rational" \
            if kind == "integer" else rng.choice(["rational", "radical",
                                                  "tilde"])

        def moved(v, dv):
            if not dv or not isinstance(v + dv, F) or style == "rational":
                return v + dv
            return quadext(v + dv, F(1, 32), 3) if style == "radical" \
                else tilde(v + dv)
        return Point(moved(p.x, dx), moved(p.y, dy))

    def below(i, t):
        return target(i, F(1, 4), -8 - 4 * t - inst.disks[i].y)

    pair = index[id(a)] if variant == "rectilinear" or rng.random() < 0.5 \
        else index[id(u)]
    away = {i: below(i, t) for t, i in enumerate(
        sorted({pair, *(index[id(d)] for d in planted)}))}
    if kind == "tilde" and rng.random() < 0.4:
        i = min(away)
        away[i] = Point(Interval(F(-4), F(8)), F(-21, 5)) \
            if variant == "euclidean" else \
            Point(inst.disks[i].x, Interval(F(-14), F(-3)))
    short = {i: target(i, *rng.choice([(1, 0), (0, 2), (F(-5, 2), 0),
                                       (-3, F(1, 2)), (0, F(-7, 4))]))
             for i in rng.sample(range(len(disks)), rng.randint(1, 3))}
    witnesses = [{}, {pair: below(pair, 0)}, away, short, {}]
    return inst, [(Witness(w), rng.choice([None, None, F(1, 100), F(1, 2)]))
                  for w in witnesses]


class TestValidationDifferential:
    @pytest.mark.parametrize("part", range(4))
    def test_matches_whole_list_reference(self, part):
        # the instance keeps its pairs between the validations; each result
        # must equal the reference's and that of a fresh copy
        for seed in range(part, 240, 4):
            inst, checks = differential_case(seed)
            for w, eps in checks:
                got = validate_witness(inst, w, eps)
                fresh = Instance(inst.variant, inst.k, inst.d2, inst.disks,
                                 inst.blocks)
                assert got == reference_validate(inst, w, eps), (seed, w, eps)
                assert got == validate_witness(fresh, w, eps), (seed, w, eps)


def quarter(rng, lo, hi):
    return F(rng.randint(4 * lo, 4 * hi), 4)


def block_step_case(seed):
    """One block of step 7/5 to 3 over [0, x1] x [0, y1], x1 and y1 in 3-9,
    with a quarter-grid hole in one seed of two; 0-4 quarter-grid disks,
    about half of them moved by up to 1 on each axis, and k the number of
    moves."""
    rng = random.Random(f"block-step-{seed}")
    step = F(rng.randint(7, 15), 5)
    x1, y1 = rng.randint(3, 9), rng.randint(3, 9)
    holes = ()
    if rng.random() < 0.5:
        a, b = sorted((quarter(rng, 0, x1), quarter(rng, 0, x1)))
        c, d = sorted((quarter(rng, 0, y1), quarter(rng, 0, y1)))
        holes = (Rect(a, c, b, d),)
    disks = tuple(Point(quarter(rng, -3, 12), quarter(rng, -3, 12))
                  for _ in range(rng.randint(0, 4)))
    moves = {i: Point(p.x + quarter(rng, -1, 1), p.y + quarter(rng, -1, 1))
             for i, p in enumerate(disks) if rng.random() < 0.5}
    inst = Instance(rng.choice(["euclidean", "rectilinear"]), len(moves),
                    rng.choice([F(1, 4), F(1), F(2)]), disks,
                    (LatticeBlock(F(0), F(0), F(x1), F(y1), step, holes),))
    return inst, Witness(moves)


class TestBlockStepDifferential:
    @pytest.mark.parametrize("part", range(3))
    def test_block_and_expansion_agree_at_every_eps(self, part):
        # lattice neighbours lie step apart, so a block passes the step
        # test exactly when its expansion's neighbour pairs clear 4 - eps
        for seed in range(part, 3000, 3):
            inst, w = block_step_case(seed)
            flat = expand_blocks(inst)
            for eps in (None, F(1, 10 ** 9), F(1, 2), F(3, 2), F(3), F(5)):
                got = validate_witness(inst, w, eps).status
                assert got == validate_witness(flat, w, eps).status, \
                    (seed, eps)

    def test_tolerant_step_below_two(self):
        inst = Instance("euclidean", 0, F(0), (),
                        (LatticeBlock(F(0), F(0), F(4), F(4), F(19, 10)),))
        assert str(validate_witness(inst, Witness({}), F(1, 2))) == \
            "accept(1/2)"
        assert str(validate_witness(inst, Witness({}))) == \
            "reject(block-step, 19/10)"


class TestBlocks:
    def test_membership_and_holes(self):
        b = LatticeBlock(F(0), F(0), F(8), F(8), F(2),
                         (Rect(F(3), F(3), F(5), F(5)),))
        pts = {(int(p.x), int(p.y)) for p in b.iter_disks()}
        assert (0, 0) in pts and (8, 8) in pts
        assert (4, 4) not in pts  # inside the hole
        assert len(pts) == 25 - 1

    def test_block_conflict_detected(self):
        b = LatticeBlock(F(0), F(0), F(8), F(8), F(2))
        inst = Instance("euclidean", 0, F(0), (P(3, 0),), (b,))
        res = validate_witness(inst, Witness({}))
        assert res.status == "reject" and res.reason == "block"

    def test_block_clear_of_explicit_disks(self):
        b = LatticeBlock(F(0), F(0), F(8), F(8), F(2),
                         (Rect(F(2), F(2), F(6), F(6)),))
        inst = Instance("euclidean", 0, F(0), (P(4, 4),), (b,))
        assert validate_witness(inst, Witness({})).status == "accept"

    def test_expansion_gives_same_verdict(self):
        w = Witness({1: Point(F(1), quadext(0, 1, 3))})
        # hole stops at y=1: the lattice point (0, 2) survives and clashes
        # with the moved disk at (1, sqrt(3))
        tight = Rect(F(-2), F(-2), F(4), F(1))
        inst = Instance("euclidean", 1, F(3), FIG1.disks,
                        (LatticeBlock(F(-6), F(-6), F(8), F(8), F(2),
                                      (tight,)),))
        implicit = validate_witness(inst, w)
        explicit = validate_witness(expand_blocks(inst), w)
        assert implicit.status == explicit.status == "reject"
        # hole up to y=2 clears that point
        roomy = Rect(F(-2), F(-2), F(4), F(2))
        inst2 = Instance("euclidean", 1, F(3), FIG1.disks,
                         (LatticeBlock(F(-6), F(-6), F(8), F(8), F(2),
                                       (roomy,)),))
        implicit2 = validate_witness(inst2, w)
        explicit2 = validate_witness(expand_blocks(inst2), w)
        assert implicit2.status == explicit2.status == "accept"

    def test_undecided_lattice_separation_is_indeterminate(self):
        # (12.0~, 0) lies 1.9 to 2.1 from the block corner (10, 0)
        b = LatticeBlock(F(0), F(0), F(10), F(10), F(2))
        inst = Instance("euclidean", 0, F(0),
                        (Point(parse_scalar("12.0~"), F(0)),), (b,))
        assert str(validate_witness(inst, Witness({}))) == \
            "indeterminate(separation of (12.0~, 0) and (10, 0))"

    def test_block_step_below_two_rejected(self):
        b = LatticeBlock(F(0), F(0), F(10), F(10), F(1))
        inst = Instance("euclidean", 0, F(0), (), (b,))
        assert str(validate_witness(inst, Witness({}))) == \
            "reject(block-step, 1)"

    def test_expansion_cap(self):
        b = LatticeBlock(F(0), F(0), F(10 ** 5), F(10 ** 5), F(2))
        inst = Instance("euclidean", 0, F(0), (), (b,))
        with pytest.raises(ValueError):
            expand_blocks(inst, cap=1000)

    def test_block_pair_conflicts(self):
        base = LatticeBlock(F(0), F(0), F(8), F(8), F(2))
        interleaved = LatticeBlock(F(1), F(0), F(9), F(8), F(2))
        touching = LatticeBlock(F(10), F(0), F(18), F(8), F(2))
        bad = Instance("euclidean", 0, F(0), (), (base, interleaved))
        res = validate_witness(bad, Witness({}))
        assert res.status == "reject" and res.reason == "block"
        good = Instance("euclidean", 0, F(0), (), (base, touching))
        assert validate_witness(good, Witness({})).status == "accept"

    def test_near_points_matches_brute_force(self):
        import random
        rng = random.Random(61)
        for trial in range(80):
            step = rng.choice([F(2), F(5, 2), F(7, 3)])
            x0 = F(rng.randint(-36, 0), rng.choice([1, 3, 4]))
            y0 = F(rng.randint(-36, 0), rng.choice([1, 2, 5]))
            holes = []
            for _ in range(rng.randint(0, 3)):
                hx, hy = (F(rng.randint(-40, 40), rng.choice([1, 3, 7]))
                          for _ in range(2))
                holes.append(Rect(hx, hy, hx + F(rng.randint(0, 30), 4),
                                  hy + F(rng.randint(0, 30), 3)))
            b = LatticeBlock(x0, y0, x0 + F(rng.randint(0, 30), 2),
                             y0 + F(rng.randint(0, 30), 2), step,
                             tuple(holes))
            lattice = brute_lattice(b)
            assert list(b.iter_disks()) == lattice
            p = Point(F(rng.randint(-60, 40), 4), F(rng.randint(-60, 40), 3))
            reach = F(rng.randint(1, 12), rng.choice([1, 2]))
            got = {(q.x, q.y) for q in b.near_points(p, reach)}
            want = {(q.x, q.y) for q in lattice
                    if abs(q.x - p.x) <= reach and abs(q.y - p.y) <= reach}
            assert got == want
            r = Point(quadext(p.x, 1, 2), p.y)
            for c, threshold in ((p, F(4)), (p, F(4) - F(1, 10 ** 9)),
                                 (p, F(25, 4)), (r, F(4))):
                first = next((q for q in lattice if compare(
                    dist2(c, q), threshold) is Ordering.LESS), None)
                assert b.first_close([c], threshold) == \
                    (None if first is None else (0, first))

    def test_first_close_matches_brute_force(self):
        # one query over many points: outside the block rectangle, inside
        # windows that one hole covers, with mixed denominators, and one
        # radical point among them
        rng = random.Random(14)
        for trial in range(60):
            step = rng.choice([F(2), F(5, 2), F(7, 3)])
            x0 = F(rng.randint(-12, 0), rng.choice([1, 2, 3]))
            y0 = F(rng.randint(-12, 0), rng.choice([1, 4]))
            holes = tuple(
                Rect(hx, hy, hx + F(rng.randint(2, 16), 2),
                     hy + F(rng.randint(2, 16), 3))
                for hx, hy in ((F(rng.randint(-8, 16), rng.choice([1, 3])),
                                F(rng.randint(-8, 16), rng.choice([1, 5])))
                               for _ in range(rng.randint(0, 3))))
            b = LatticeBlock(x0, y0, x0 + 8 * step, y0 + 6 * step, step,
                             holes)
            lattice = brute_lattice(b)
            pts = []
            for _ in range(rng.randint(1, 12)):
                if holes and rng.random() < 0.4:
                    h = rng.choice(holes)  # at the centre of a hole
                    pts.append(Point((h.x0 + h.x1) / 2, (h.y0 + h.y1) / 2))
                else:
                    pts.append(Point(
                        F(rng.randint(-60, 100), rng.choice([1, 2, 3, 7])),
                        F(rng.randint(-60, 80), rng.choice([1, 4, 5]))))
            if rng.random() < 0.5:
                c = rng.randrange(len(pts))
                pts[c] = Point(quadext(pts[c].x, 1, 2), pts[c].y)
            for threshold in (F(4), F(4) - F(1, 10 ** 9), F(25, 4)):
                want = next(((k, q) for k, p in enumerate(pts)
                             for q in lattice if compare(
                                 dist2(p, q), threshold) is Ordering.LESS),
                            None)
                assert b.first_close(pts, threshold) == want
                assert b.first_close(iter(pts), threshold) == want

    @pytest.mark.parametrize("seed", range(3))
    def test_first_close_off_the_scale_matches_brute_force(self, seed):
        # half the points have distinct prime denominators near 10^6, so
        # the common denominator passes the scale's bound and some points
        # leave the scale; the others are on it, over a block whose origin
        # has its own denominator
        rng = random.Random(f"off-scale-{seed}")
        primes = iter(rng.sample(
            [n for n in range(10 ** 6 + 1, 10 ** 6 + 3000, 2)
             if all(n % d for d in range(3, 1003, 2))], 80))
        b = LatticeBlock(F(1, 3), F(-1, 2), F(49, 3), F(23, 2), F(2),
                         (Rect(F(5), F(3), F(9), F(7)),))
        lattice = brute_lattice(b)
        pts = []
        for _ in range(40):
            if rng.random() < 0.5:
                pts.append(P(F(rng.randint(-4, 36), 2),
                             F(rng.randint(-4, 28), 2)))
            else:
                p, q = next(primes), next(primes)
                pts.append(Point(F(rng.randint(-2 * p, 18 * p), p),
                                 F(rng.randint(-2 * q, 14 * q), q)))
        _, X, _ = scale_points(pts)
        assert None in X and any(x is not None for x in X)
        for threshold in (F(4), F(4) - F(1, 10 ** 9), F(25, 4)):
            for start in range(len(pts)):
                rest = pts[start:]
                want = next(((k, q) for k, p in enumerate(rest)
                             for q in lattice if compare(
                                 dist2(p, q), threshold) is Ordering.LESS),
                            None)
                assert b.first_close(rest, threshold) == want

    def test_lattice_tangency_is_exact(self):
        # (4, 6) touches (2, 6); 2+sqrt(3), 7 touches (2, 6) and (2, 8)
        tiny = F(1, 10 ** 9)
        for x, y in ((F(4), F(6)), (quadext(2, 1, 3), F(7))):
            near = Point(x - tiny, y)
            assert validate_witness(HOLE_INST, Witness({0: Point(x, y)})) \
                .status == "accept"
            res = validate_witness(HOLE_INST, Witness({0: near}))
            assert (res.status, res.reason, res.detail) == \
                ("reject", "block", 0)

    @given(st.one_of(
        st.builds(Point, st.fractions(1, 11, max_denominator=12),
                  st.fractions(1, 11, max_denominator=12)),
        st.builds(lambda lx, ly, a: Point(F(lx + a),
                                          quadext(ly, 1, 4 - a * a)),
                  st.integers(1, 5).map(lambda v: 2 * v),
                  st.integers(1, 5).map(lambda v: 2 * v),
                  st.fractions(-2, 2, max_denominator=6))))
    @example(P(4, 6))
    @example(Point(F(4) - F(1, 10 ** 9), F(6)))
    @example(Point(quadext(2, 1, 3), F(7)))
    @example(Point(quadext(2 - F(1, 10 ** 9), 1, 3), F(7)))
    @settings(max_examples=150, deadline=None)
    def test_implicit_blocks_match_expansion(self, target):
        w = Witness({0: target})
        implicit = validate_witness(HOLE_INST, w)
        explicit = validate_witness(expand_blocks(HOLE_INST), w)
        assert implicit.status == explicit.status
        if explicit.reason == "packing" and explicit.detail[1] >= 2:
            # the pair names a lattice point: the implicit check names the
            # disk that meets the block
            assert (implicit.reason, implicit.detail) == \
                ("block", explicit.detail[0])
        else:
            assert (implicit.reason, implicit.detail) == \
                (explicit.reason, explicit.detail)


# every reach ceil_sqrt gives from 0 to 3, with thresholds at and just below
# a square, and 0, the tolerant threshold 4 - eps of eps = 4
CLEAR_THRESHOLDS = (F(4), F(4) - F(1, 10 ** 9), F(25, 4), F(9, 4), F(1),
                    F(1, 4), F(0))


class TestClearRectangles:
    """first_close clears a point on the scale when it lies inside one
    hole's rectangle of scaled coordinates; each case meets an edge of
    those rectangles, against brute_lattice."""

    @staticmethod
    def check(b, pts):
        """first_close of every suffix of pts, so that each point comes
        first once, equals the brute-force first close pair."""
        lattice = brute_lattice(b)
        for threshold in CLEAR_THRESHOLDS:
            close = [next((q for q in lattice if compare(
                dist2(p, q), threshold) is Ordering.LESS), None)
                for p in pts]
            for start in range(len(pts)):
                want = next(((k - start, close[k])
                             for k in range(start, len(pts))
                             if close[k] is not None), None)
                assert b.first_close(pts[start:], threshold) == want, \
                    (threshold, start)

    @staticmethod
    def edge_points(b, unit):
        """Points on the grid of unit at and around each bound of each
        hole's rectangle, for every reach: the last lattice line outside the
        hole moved a reach towards it, one unit either side, and the grid
        points on both sides of a bound off the grid.  Each bound's points
        run from inside the hole out, so that the rectangle that cleared
        the point before is tried first at the bound.  They lie on the grid
        line nearest the lattice line nearest the middle of the hole, so
        that a point just inside a bound is close to a lattice point when
        the threshold is the reach's square."""
        xs = [b.x0 + i * b.step for i in range(b.nx + 1)]
        ys = [b.y0 + j * b.step for j in range(b.ny + 1)]

        def grid(v, up):
            cs = range(math.floor(v / unit) - 1, math.ceil(v / unit) + 2)
            return [c * unit for c in (cs if up else reversed(cs))]

        pts = []
        for h in b.holes:
            xm, ym = (round(min(vs, key=lambda v: abs(2 * v - lo - hi))
                            / unit) * unit
                      for vs, lo, hi in ((xs, h.x0, h.x1), (ys, h.y0, h.y1)))
            for r in sorted({ceil_sqrt(t) for t in CLEAR_THRESHOLDS}):
                for vs, lo, hi, at in ((xs, h.x0, h.x1, lambda v: (v, ym)),
                                       (ys, h.y0, h.y1, lambda v: (xm, v))):
                    for v in [v for v in vs if v < lo][-1:]:
                        pts += [Point(*at(c)) for c in grid(v + r, False)]
                    for v in [v for v in vs if v > hi][:1]:
                        pts += [Point(*at(c)) for c in grid(v - r, True)]
        return pts

    def test_clear_range_matches_the_clamped_window(self):
        rng = random.Random(33)
        for _ in range(300):
            n, step, m = rng.randint(0, 9), rng.randint(1, 7), \
                rng.randint(1, 5)
            origin, reach = rng.randint(-20, 20), rng.randint(0, 12)
            k0 = rng.randint(0, n + 1)
            k1 = rng.randint(k0 - 2, n)
            lo, hi = _clear_range(k0, k1, n, origin, step, reach, m)
            for c in range(-80, 80):
                i0 = max(0, math.ceil(F(c * m - reach - origin, step)))
                i1 = min(n, math.floor(F(c * m + reach - origin, step)))
                assert (lo < c < hi) == (k0 <= i0 and i1 <= k1), \
                    (n, step, m, origin, reach, k0, k1, c)

    def test_holes_past_the_sides(self):
        # h0 = 0 and g0 = 0, h1 = nx and g1 = ny, and a hole across the
        # whole block
        b = LatticeBlock(F(0), F(0), F(20), F(16), F(2), (
            Rect(F(-3), F(-3), F(5), F(7)), Rect(F(13), F(9), F(25), F(21)),
            Rect(F(-1), F(11), F(9), F(99)),
            Rect(F(-9), F(-9), F(29), F(-1, 2))))
        pts = self.edge_points(b, F(1, 4))
        pts += [P(-10, 3), P(30, 12), P(2, -6), P(17, 40)]  # off the block
        self.check(b, pts)

    def test_hole_without_a_lattice_point(self):
        for b in (LatticeBlock(F(0), F(0), F(12), F(12), F(2),
                               (Rect(F(13, 2), F(13, 2), F(15, 2),
                                     F(15, 2)),)),
                  LatticeBlock(F(0), F(0), F(30), F(30), F(5),
                               (Rect(F(11, 2), F(-3), F(19, 2), F(40)),))):
            assert b._hole_boxes[0][0] > b._hole_boxes[0][1]
            self.check(b, self.edge_points(b, F(1, 3)))

    def test_consecutive_points_in_different_holes(self):
        holes = (Rect(F(3), F(3), F(9), F(9)), Rect(F(13), F(3), F(19), F(9)),
                 Rect(F(3), F(13), F(19), F(19)))
        b = LatticeBlock(F(0), F(0), F(24), F(24), F(2), holes)
        a, c, e = (Point((h.x0 + h.x1) / 2, (h.y0 + h.y1) / 2)
                   for h in holes)
        pts = [a, c, a, e, c, e, e, a, P(F(23, 2), 6), c]
        self.check(b, pts + self.edge_points(b, F(1, 2)))

    def test_block_scale_finer_than_the_points(self):
        # the block's denominator 3 does not divide the points' 2, so M = 6
        # and one unit of the points is three of M
        b = LatticeBlock(F(1, 3), F(-2, 3), F(61, 3), F(46, 3), F(7, 3), (
            Rect(F(3), F(2), F(9), F(7)), Rect(F(-5), F(11), F(8), F(20))))
        pts = self.edge_points(b, F(1, 2))
        pts += [Point(F(x, 2), F(y, 2))
                for x in range(-2, 44, 7) for y in range(-4, 34, 5)]
        D, X, _ = scale_points(pts)
        assert D == 2 and None not in X
        self.check(b, pts)

    def test_tolerant_eps_of_four_clears_every_point(self):
        # at eps = 4 the threshold is 0: a disk on a lattice point passes
        b = LatticeBlock(F(0), F(0), F(12), F(12), F(2),
                         (Rect(F(3), F(3), F(9), F(9)),))
        inst = Instance("euclidean", 0, F(0), (P(2, 2), P(6, 6), P(13, 1)),
                        (b,))
        assert b.first_close(list(inst.disks), F(0)) is None
        assert validate_witness(inst, Witness({})).reason == "block"
        assert validate_witness(inst, Witness({}), F(4)).accepted


# disk 0 moves; disk 1 is tangent to it and to the lattice point (6, 10);
# the hole removes the lattice points (4..8, 4..8)
HOLE_INST = Instance("euclidean", 1, F(50), (P(6, 6), P(6, 8)),
                     (LatticeBlock(F(0), F(0), F(12), F(12), F(2),
                                   (Rect(F(3), F(3), F(9), F(9)),)),))


def brute_lattice(b):
    """Reference for LatticeBlock.iter_disks on Fraction coordinates."""
    xs, ys = [], []
    while b.x0 + len(xs) * b.step <= b.x1:
        xs.append(b.x0 + len(xs) * b.step)
    while b.y0 + len(ys) * b.step <= b.y1:
        ys.append(b.y0 + len(ys) * b.step)
    return [Point(x, y) for x in xs for y in ys
            if not any(h.x0 <= x <= h.x1 and h.y0 <= y <= h.y1
                       for h in b.holes)]
